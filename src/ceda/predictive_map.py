"""Set-valued classification by serial binary competitions down a label tree.

A test point enters at the root and at each internal node the two branches
compete for it:

1. Outlier screen: if the distance to the nearest training point of the
   node's labels exceeds a high quantile of the node's own nearest-neighbor
   distance distribution, descent stops with an empty prediction.
2. Dominant neighborhood: among the k* nearest training points (restricted
   to the node's labels), a branch holding at least a dominant fraction of
   them wins outright.
3. Pseudo-likelihood: otherwise each branch's distance sample gets a
   Gaussian kernel density (Silverman rule-of-thumb bandwidth), both
   evaluated at the median distance from the point to all node members.  A
   left/right density ratio above the upper threshold sends the point left,
   below the lower threshold right; a ratio inside the threshold band stops
   descent at this node.

The stop node's label set is the prediction: a singleton at a leaf, several
labels at an internal stop, empty for outliers.  Tabulating predicted sets
against true labels gives the predictive map."""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dataset import ZStats, csv_text, feature_matrix
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompetitionConfig:
    k_star: int = 20
    pl_lower: float = 0.65
    pl_upper: float = 100.0 / 65.0
    dominant_fraction: float = 0.9
    outlier_quantile: float = 0.99  # None disables the outlier screen

    def __post_init__(self):
        if self.k_star < 1:
            raise ConfigError("k_star must be >= 1")
        if not 0.0 < self.pl_lower <= 1.0 <= self.pl_upper:
            raise ConfigError(
                "thresholds must satisfy 0 < lower <= 1 <= upper, got (%r, %r)"
                % (self.pl_lower, self.pl_upper)
            )
        if not 0.5 < self.dominant_fraction <= 1.0:
            raise ConfigError("dominant_fraction must lie in (0.5, 1]")
        if self.outlier_quantile is not None and not 0.0 < self.outlier_quantile < 1.0:
            raise ConfigError("outlier_quantile must lie in (0, 1) or be None")


@dataclass(frozen=True)
class PredictedLabelSet:
    labels: tuple          # sorted label names; empty tuple means outlier
    stop_node: int
    path: tuple            # (node_id, decision) pairs from the root down


def silverman_bandwidth(sample):
    """Rule-of-thumb bandwidth 1.06 * sd * n^(-1/5) with a degeneracy floor."""
    sample = np.asarray(sample, dtype=float)
    n = len(sample)
    sd = float(sample.std(ddof=1)) if n > 1 else 0.0
    h = 1.06 * sd * n ** (-0.2)
    if h <= 0.0:
        # single point or zero spread: fall back to a tiny positive width
        h = max(1e-9, 1e-3 * abs(float(np.median(sample))))
    return h


def log_gaussian_kde(sample, x):
    """Log density at x of a Gaussian KDE over the sample (log-space, so the
    ratio of two branch densities stays finite even far from both samples)."""
    sample = np.asarray(sample, dtype=float)
    h = silverman_bandwidth(sample)
    u = (x - sample) / h
    return float(logsumexp(-0.5 * u * u) - math.log(len(sample) * h * math.sqrt(2.0 * math.pi)))


class TreeClassifier:
    """Prepared state for classifying many points against one label tree."""

    def __init__(self, tree, train, features, cfg=None):
        self.tree = tree
        self.features = list(features)
        self.cfg = cfg or CompetitionConfig()
        X = feature_matrix(train.table, self.features)
        self.zstats = ZStats.fit(X)
        self.X = self.zstats.transform(X)
        y = train.label_values
        self._rows_by_label = {}
        for lab in tree.labels:
            idx = np.flatnonzero(y == lab)
            if len(idx) == 0:
                raise DataError("label '%s' has zero training rows" % lab)
            self._rows_by_label[lab] = idx
        self._node_rows = {}
        self._node_is_left = {}
        self._outlier_thr = {}
        self._warned_small_k = False

    def node_rows(self, node):
        if node not in self._node_rows:
            labs = self.tree.node_labels(node)
            rows = np.sort(np.concatenate([self._rows_by_label[l] for l in labs]))
            self._node_rows[node] = rows
        return self._node_rows[node]

    def _left_mask(self, node):
        """Boolean mask over node_rows(node): True where the row's label sits
        in the left branch."""
        if node not in self._node_is_left:
            rows = self.node_rows(node)
            left, _ = self.tree.children(node)
            left_rows = np.concatenate([
                self._rows_by_label[l] for l in self.tree.node_labels(left)
            ])
            self._node_is_left[node] = np.isin(rows, left_rows)
        return self._node_is_left[node]

    def _outlier_threshold(self, node):
        if node not in self._outlier_thr:
            rows = self.node_rows(node)
            Z = self.X[rows]
            nn = _nearest_neighbor_distances(Z)
            self._outlier_thr[node] = float(np.quantile(nn, self.cfg.outlier_quantile))
        return self._outlier_thr[node]

    def competition(self, x_raw, node):
        """Decide one internal-node competition: left / right / stop / outlier."""
        tree, cfg = self.tree, self.cfg
        if tree.is_leaf(node):
            raise DataError("node %d is a leaf, nothing to compete" % node)
        xz = self.zstats.transform(np.asarray(x_raw, dtype=float).reshape(1, -1))[0]
        rows = self.node_rows(node)
        d = np.linalg.norm(self.X[rows] - xz, axis=1)
        if cfg.outlier_quantile is not None and float(d.min()) > self._outlier_threshold(node):
            return "outlier"
        is_left = self._left_mask(node)
        k = min(cfg.k_star, len(rows))
        if k < cfg.k_star and not self._warned_small_k:
            log.warning("only %d training rows at node %d, k* reduced from %d", len(rows), node, cfg.k_star)
            self._warned_small_k = True
        order = np.lexsort((rows, d))  # distance, then row index: deterministic
        left_count = int(is_left[order[:k]].sum())
        need = cfg.dominant_fraction * k - 1e-9
        if left_count >= need:
            return "left"
        if (k - left_count) >= need:
            return "right"
        m = float(np.median(d))
        log_ratio = log_gaussian_kde(d[is_left], m) - log_gaussian_kde(d[~is_left], m)
        if cfg.pl_lower == cfg.pl_upper:
            # degenerate band: force a winner at every node
            return "left" if log_ratio >= math.log(cfg.pl_upper) else "right"
        if log_ratio > math.log(cfg.pl_upper):
            return "left"
        if log_ratio < math.log(cfg.pl_lower):
            return "right"
        return "stop"

    def classify(self, x_raw):
        """Descend from the root; return the PredictedLabelSet where descent stops."""
        tree = self.tree
        node = tree.root
        path = []
        while not tree.is_leaf(node):
            decision = self.competition(x_raw, node)
            path.append((node, decision))
            if decision == "outlier":
                return PredictedLabelSet(labels=(), stop_node=node, path=tuple(path))
            if decision == "stop":
                return PredictedLabelSet(labels=tree.node_labels(node), stop_node=node, path=tuple(path))
            left, right = tree.children(node)
            node = left if decision == "left" else right
        return PredictedLabelSet(labels=tree.node_labels(node), stop_node=node, path=tuple(path))

    def classify_rows(self, table):
        return [self.classify(x) for x in feature_matrix(table, self.features)]


def _nearest_neighbor_distances(Z):
    """Distance from each row to its nearest other row, block-wise.  Called
    for internal nodes only, which hold rows of at least two labels."""
    n = len(Z)
    sq = np.sum(Z * Z, axis=1)
    out = np.empty(n)
    step = 512
    for s in range(0, n, step):
        block = Z[s:s + step]
        d2 = sq[s:s + step, None] + sq[None, :] - 2.0 * (block @ Z.T)
        np.maximum(d2, 0.0, out=d2)
        for i in range(len(block)):
            d2[i, s + i] = np.inf
        out[s:s + step] = np.sqrt(d2.min(axis=1))
    return out


def set_name(labels, universe):
    """Display name for a predicted label set.

    Single-character labels concatenate ("be"); longer ones join with "+";
    the full label space is "all" and the empty set "none"."""
    labels = sorted(str(l) for l in labels)
    if not labels:
        return "none"
    if set(labels) == set(str(u) for u in universe):
        return "all"
    if all(len(l) == 1 for l in labels):
        return "".join(labels)
    return "+".join(labels)


@dataclass
class Category:
    key: tuple          # one sorted predicted label tuple per chain link, deepest last
    name: str           # link set names joined with "-", no star
    certain: bool
    counts: np.ndarray  # per true label
    rows: np.ndarray    # member row ids

    @property
    def labels(self):
        """The deepest link's predicted label set."""
        return self.key[-1]

    @property
    def display_name(self):
        return self.name if self.certain else "*" + self.name

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass
class CategoryTable:
    """Predicted categories tabulated against true labels: a predictive map,
    or one depth of a feature chain."""

    true_labels: list
    categories: list

    def total(self):
        return int(sum(cat.total for cat in self.categories))

    def certain_fraction(self):
        total = self.total()
        if total == 0:
            return 0.0
        return sum(cat.total for cat in self.categories if cat.certain) / total

    def singleton_fraction(self):
        total = self.total()
        ones = sum(cat.total for cat in self.categories if len(cat.labels) == 1)
        return ones / total if total else 0.0

    def per_label_proportions(self):
        """Column-wise proportions per true label (pie chart data)."""
        out = {}
        for i, lab in enumerate(self.true_labels):
            col_total = sum(int(cat.counts[i]) for cat in self.categories)
            out[lab] = {
                cat.display_name: int(cat.counts[i]) / col_total
                for cat in self.categories if cat.counts[i] > 0
            } if col_total else {}
        return out

    def to_csv_text(self):
        rows = [["category"] + [str(l) for l in self.true_labels]]
        rows += [[cat.display_name] + [int(c) for c in cat.counts] for cat in self.categories]
        return csv_text(rows)

    def to_json_dict(self):
        return {
            "true_labels": [str(l) for l in self.true_labels],
            "categories": [
                {
                    "name": cat.display_name,
                    "certain": cat.certain,
                    "counts": {str(l): int(c) for l, c in zip(self.true_labels, cat.counts)},
                }
                for cat in self.categories
            ],
        }


def _category_sort_key(key):
    # per link: singletons first, then growing set size, empty (outlier) last
    return tuple((len(labels) == 0, len(labels), labels) for labels in key)


def tabulate_predictions(keys_per_row, rows, true_values, true_labels, universe):
    """Group rows by category key and count them against true labels.

    ``keys_per_row[row]`` holds one sorted predicted label tuple per chain
    link; a predictive map is the one-link case.  A category whose members
    carry a single true label is certain; categories mixing true labels are
    uncertain and displayed with a '*' prefix."""
    label_pos = {lab: i for i, lab in enumerate(true_labels)}
    buckets = {}
    for row in rows:
        counts, members = buckets.setdefault(keys_per_row[row], (np.zeros(len(true_labels), dtype=int), []))
        counts[label_pos[true_values[row]]] += 1
        members.append(row)
    categories = []
    for key in sorted(buckets, key=_category_sort_key):
        counts, members = buckets[key]
        categories.append(Category(
            key=key,
            name="-".join(set_name(labels, universe) for labels in key),
            certain=int(np.count_nonzero(counts)) == 1,
            counts=counts,
            rows=np.asarray(members, dtype=int),
        ))
    return CategoryTable(true_labels=list(true_labels), categories=categories)


def predictive_map(test, tree, train, features, cfg=None):
    """Classify every test row and tabulate predicted sets against true labels.

    Returns the one-link CategoryTable and the per-row PredictedLabelSets."""
    clf = TreeClassifier(tree, train, features, cfg)
    preds = clf.classify_rows(test.table)
    table = tabulate_predictions(
        [(pred.labels,) for pred in preds], range(len(preds)),
        test.label_values, list(test.labels), tree.labels,
    )
    return table, preds
