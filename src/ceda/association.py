"""Entropy-based association between categorical (or binned) variables.

The directed value from rows to columns of a contingency table is the
weighted sum of row-specific Shannon entropies of the column variable,
rescaled by the unconditional Shannon entropy of the column variable:

    dce(row -> col) = sum_r p(r) * H(col | row = r) / H(col)

Entropies are in nats and empty cells contribute nothing (0 * log 0 = 0).
Averaging the two directed values gives a symmetric association measure in
[0, 1]: 0 means fully associated, values near 1 mean independent.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import hclust
from .dataset import LabeledDataset, csv_text
from .discretize import categorize_many
from .errors import DataError

log = logging.getLogger(__name__)

DIRECTIONS = ("row_to_col", "col_to_row")


@dataclass
class ContingencyTable:
    row_var: str
    col_var: str
    row_cats: list
    col_cats: list
    counts: np.ndarray  # shape (len(row_cats), len(col_cats)), non-negative ints

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.shape != (len(self.row_cats), len(self.col_cats)):
            raise DataError("contingency counts shape does not match categories")
        if np.any(self.counts < 0):
            raise DataError("contingency counts must be non-negative")
        if self.counts.sum() == 0:
            raise DataError("contingency table is empty")

    @property
    def n(self):
        return int(self.counts.sum())


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


def contingency_table(table, row_var, col_var, binnings=None):
    """Cross-tabulate two variables of a DataTable.

    Continuous variables are mapped through their Binning from ``binnings``;
    discrete and categorical ones use their distinct values directly.
    """
    if isinstance(table, LabeledDataset):
        table = table.table
    if row_var == col_var:
        raise DataError("row and column variable are the same ('%s')" % row_var)
    row_codes, row_cats = category_codes(table, row_var, binnings)
    col_codes, col_cats = category_codes(table, col_var, binnings)
    if len(row_cats) < 2 or len(col_cats) < 2:
        few = row_var if len(row_cats) < 2 else col_var
        raise DataError("variable '%s' has a single category after binning" % few)
    counts = np.zeros((len(row_cats), len(col_cats)), dtype=int)
    np.add.at(counts, (row_codes, col_codes), 1)
    return ContingencyTable(row_var, col_var, row_cats, col_cats, counts)


def shannon_entropy(p):
    """Entropy in nats of a count or probability vector; 0 log 0 is 0."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if total <= 0:
        return 0.0
    p = p / total
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def directed_conditional_entropy(t, direction="row_to_col"):
    """Directed association of a contingency table, in [0, 1].

    Raises DataError when the target variable is degenerate (zero entropy).
    """
    if direction not in DIRECTIONS:
        raise DataError("unknown direction '%s'" % direction)
    counts = t.counts if direction == "row_to_col" else t.counts.T
    n = counts.sum()
    h_target = shannon_entropy(counts.sum(axis=0))
    if h_target == 0.0:
        name = t.col_var if direction == "row_to_col" else t.row_var
        raise DataError("degenerate target '%s': zero entropy" % name)
    acc = 0.0
    for row in counts:
        total = row.sum()
        if total == 0:
            continue
        acc += (total / n) * shannon_entropy(row)
    return acc / h_target


def mutual_conditional_entropy(t):
    """Average of the two directed values; symmetric in the two variables."""
    forward = directed_conditional_entropy(t, "row_to_col")
    backward = directed_conditional_entropy(t, "col_to_row")
    return 0.5 * (forward + backward)


@dataclass
class MceMatrix:
    features: list        # in clustered display order
    values: np.ndarray    # symmetric, zero diagonal, same order as features
    dendro: object        # Dendrogram over the features (leaf_names = features)

    def groups(self, k):
        return hclust.cut(self.dendro, k).resolve(self.dendro.leaf_names)

    def to_csv_text(self, fmt="%.10g"):
        rows = [["feature"] + list(self.features)]
        rows += [[name] + [fmt % v for v in row] for name, row in zip(self.features, self.values)]
        return csv_text(rows)


def mce_matrix(table, binnings=None, features=None, linkage="average"):
    """Pairwise mutual conditional entropy over usable features.

    Degenerate features (a single category after binning) are skipped with a
    warning.  The output ordering is the leaf order of an average-linkage
    clustering of the matrix, so associated blocks sit together.
    """
    if isinstance(table, LabeledDataset):
        if features is None:
            features = table.feature_names()
        table = table.table
    if features is None:
        features = table.names
    usable = []
    for name in features:
        codes, cats = None, None
        try:
            codes, cats = category_codes(table, name, binnings)
        except DataError as exc:
            log.warning("skipping feature '%s': %s", name, exc)
            continue
        if len(cats) < 2 or len(np.unique(codes)) < 2:
            log.warning("skipping degenerate feature '%s'", name)
            continue
        usable.append(name)
    if len(usable) < 2:
        raise DataError("need at least 2 usable features, have %d" % len(usable))
    k = len(usable)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            t = contingency_table(table, usable[i], usable[j], binnings)
            values[i, j] = values[j, i] = mutual_conditional_entropy(t)
    dendro = hclust.agglomerate(values, linkage=linkage)
    order = dendro.leaf_order()
    ordered = [usable[i] for i in order]
    reindexed = values[np.ix_(order, order)]
    # re-express the dendrogram over the reordered leaves for display
    pos = {old: new for new, old in enumerate(order)}
    remapped = []
    for left, right, h in dendro.merges:
        remap = lambda node: pos[node] if node < k else node
        remapped.append((remap(left), remap(right), h))
    dendro_ordered = hclust.Dendrogram(n_leaves=k, merges=remapped, leaf_names=ordered)
    return MceMatrix(features=ordered, values=reindexed, dendro=dendro_ordered)


def rank_features_by_label_association(ds, binnings=None, direction="label_to_feature"):
    """Per-feature directed conditional entropy against the label column.

    ``label_to_feature`` conditions on the label (lower = the label tells
    more about the feature).  Returns (feature, value) pairs sorted
    ascending, ties broken by name.
    """
    if direction not in ("label_to_feature", "feature_to_label"):
        raise DataError("unknown direction '%s'" % direction)
    out = []
    for name in ds.feature_names():
        try:
            t = contingency_table(ds.table, ds.label_column, name, binnings)
            dce = directed_conditional_entropy(
                t, "row_to_col" if direction == "label_to_feature" else "col_to_row"
            )
        except DataError as exc:
            log.warning("skipping feature '%s': %s", name, exc)
            continue
        out.append((name, dce))
    if not out:
        raise DataError("no usable features to rank")
    return sorted(out, key=lambda kv: (kv[1], kv[0]))
