"""Chained feature-set refinement of classification uncertainty.

The first feature set produces a predictive map.  Every uncertain category
(one mixing several true labels) is then re-classified under the next
feature set, using a label tree built on that set from the full training
data, and so on down the chain.  Certain categories are never refined, so a
parent's count always equals the sum of its children's counts.

Composite categories are named by joining per-link label-set names with "-"
("e-be" reads: first link predicted {e}, second link {b, e}).

dissect_external places an external classifier's singleton predictions into
the chain's deepest categories and partitions all points into four cases:
certainty/uncertainty crossed with coherent/incoherent, where coherence
means the external label belongs to the deepest link's predicted set.
"""

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .association import cross_counts
from .dataset import ZStats, csv_text, feature_matrix
from .errors import ConfigError, DataError
from .label_tree import tree_from_training
from .predictive_map import CompetitionConfig, TreeClassifier, k_nearest, kd_tree, predicted_sets, tabulate_predictions

log = logging.getLogger(__name__)

CASES = (
    "certainty-coherent",
    "certainty-incoherent",
    "uncertainty-coherent",
    "uncertainty-incoherent",
)


@dataclass(frozen=True)
class ChainLink:
    name: str
    features: tuple
    cfg: CompetitionConfig = None  # None: the default thresholds


@dataclass
class FeatureChain:
    links: list

    def __post_init__(self):
        if not self.links:
            raise ConfigError("a feature chain needs at least one link")
        names = [l.name for l in self.links]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate chain link names")


@dataclass
class ChainResult:
    chain: FeatureChain
    tables: list
    final_category_per_row: list = field(default_factory=list)
    true_value_per_row: list = field(default_factory=list)
    labels: list = field(default_factory=list)   # the training labels

    def verify_conservation(self):
        """Each refined parent's count must equal the sum of its children."""
        for parent_table, child_table in zip(self.tables, self.tables[1:]):
            parents = {c.key: c.total for c in parent_table.categories if not c.certain}
            children = {}
            for child in child_table.categories:
                children[child.key[:-1]] = children.get(child.key[:-1], 0) + child.total
            if children != parents:
                return False
        return True


def derived_seed(seed, word):
    """The seed of a stage or link: the first word of SeedSequence([seed, word])."""
    return int(np.random.SeedSequence([int(seed), int(word)]).generate_state(1)[0])


def chain_categories(test, train, chain, samples_per_triplet=200, seed=0):
    """Run the refinement chain over a test set.

    Label trees are rebuilt per link on the full training data with seeds
    derived from (seed, link index), so a chain run is reproducible and the
    same link always sees the same tree regardless of refinement depth.
    """
    universe = list(train.labels)
    true_values = test.label_values
    n = test.n_rows
    keys = {row: () for row in range(n)}
    tables = []
    final = [None] * n
    active_rows = list(range(n))
    for depth, link in enumerate(chain.links, start=1):
        tree = tree_from_training(
            train, list(link.features),
            samples_per_triplet=samples_per_triplet,
            seed=derived_seed(seed, depth - 1),
        )
        clf = TreeClassifier(tree, train, list(link.features), link.cfg)
        stop, outlier, _ = clf.classify(feature_matrix(test.table, list(link.features))[active_rows])
        for row, labels in zip(active_rows, predicted_sets(tree, stop, outlier)):
            keys[row] += (labels,)
        table = tabulate_predictions(keys, active_rows, true_values, list(test.labels), universe)
        tables.append(table)
        next_rows = []
        for cat in table.categories:
            for row in cat.rows:
                final[row] = cat
            if not cat.certain:
                next_rows.extend(cat.rows.tolist())
        active_rows = sorted(next_rows)
        if not active_rows:
            break
    return ChainResult(chain=chain, tables=tables,
                       final_category_per_row=final,
                       true_value_per_row=[str(v) for v in true_values], labels=universe)


# ---------------------------------------------------------------------------
# Dissection of an external classifier


@dataclass
class DissectionReport:
    records: list   # dicts: row, true, external, category, depth, case
    totals: dict    # case -> count

    def to_csv_text(self):
        fields = ["row", "true", "external", "category", "depth", "case"]
        return csv_text([fields] + [[r[f] for f in fields] for r in self.records])

    def to_json_dict(self):
        """The summary; the per-row records are in to_csv_text."""
        return {"totals": {c: int(self.totals.get(c, 0)) for c in CASES}}


def dissect_external(external, result):
    """Partition externally-predicted points by chain certainty and coherence.

    ``external`` maps test row position to a singleton predicted label.  Every
    test row must be covered, every key must be a valid row and every label
    must belong to the training universe.
    """
    n = len(result.final_category_per_row)
    external = {int(k): str(v) for k, v in external.items()}
    missing = [r for r in range(n) if r not in external]
    if missing:
        raise DataError("external predictions missing rows: %s%s" % (
            ", ".join(str(r) for r in missing[:10]), "..." if len(missing) > 10 else ""))
    unknown = sorted(set(external) - set(range(n)))
    if unknown:
        raise DataError("external predictions for unknown rows: %s" % unknown[:10])
    universe = set(result.labels)
    stray = {}
    for row in range(n):
        if external[row] not in universe:
            stray.setdefault(external[row], []).append(row)
    if stray:
        raise DataError("external predictions name labels outside the training labels: %s" % "; ".join(
            "'%s' (rows %s%s)" % (lab, ", ".join(str(r) for r in rows[:5]), "..." if len(rows) > 5 else "")
            for lab, rows in sorted(stray.items())))
    records = []
    totals = {c: 0 for c in CASES}
    for row in range(n):
        cat = result.final_category_per_row[row]
        ext = external[row]
        case = "%s-%s" % ("certainty" if cat.certain else "uncertainty",
                          "coherent" if ext in cat.labels else "incoherent")
        totals[case] += 1
        records.append({
            "row": row,
            "true": result.true_value_per_row[row],
            "external": ext,
            "category": cat.display_name,
            "depth": len(cat.key),
            "case": case,
        })
    return DissectionReport(records=records, totals=totals)


def load_external_predictions(path):
    """Read (row_id, predicted_label) CSV with a header."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError("external predictions file %s is empty" % path)
            out = {}
            for i, row in enumerate(reader):
                if len(row) < 2:
                    raise DataError("external predictions row %d is malformed" % i)
                try:
                    rid = int(row[0])
                except ValueError:
                    raise DataError("external predictions row %d: bad row id '%s'" % (i, row[0]))
                if rid in out:
                    raise DataError("external predictions row %d: row id %d given twice" % (i, rid))
                out[rid] = row[1].strip()
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc))
    if not out:
        raise DataError("external predictions file %s has no rows" % path)
    return out


def knn_baseline_predict(train, test, features, k=20):
    """Plain k-nearest-neighbor majority vote (the built-in reference
    external classifier).  Ties: smallest label alphabetically."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    Xtr = feature_matrix(train.table, features)
    zs = ZStats.fit(Xtr, features)
    Ztr = zs.transform(Xtr)
    Zte = zs.transform(feature_matrix(test.table, features))
    y = train.label_values
    labels, codes = np.unique(y, return_inverse=True)
    _, nearest = k_nearest(Zte, Ztr, k, kd_tree(Ztr))
    votes = cross_counts(np.repeat(np.arange(len(Zte)), nearest.shape[1]), len(Zte),
                         codes[nearest].ravel(), len(labels))
    # argmax takes the first maximum: alphabetical tie-break
    return labels[np.argmax(votes, axis=1)].tolist()
