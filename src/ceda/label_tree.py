"""Label embedding tree: a binary hierarchy of class labels built from
empirical distance dominance.

For every triple of labels, point triples are sampled (one training point
per label, uniform with replacement, features z-scored on train) and the
strictly smallest of the three pairwise Euclidean distances marks its label
pair as dominated by the other two.  Tallying who dominates whom over all
triples gives each label pair a relative distance: the fraction of its
exposures in which it dominated some other pair.  Labels whose pair is
rarely a dominator sit close together.  Average-linkage clustering of the
resulting label-by-label matrix yields the tree.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .dataset import ZStats, csv_text, feature_matrix
from .errors import ComputationError, DataError
from .hclust import Dendrogram, agglomerate

log = logging.getLogger(__name__)

MAX_TIE_ROUNDS = 100


@dataclass
class DominanceMatrix:
    labels: list
    pairs: list          # label-name tuples, C(L,2) of them in index order
    counts: np.ndarray   # counts[p, q]: times pair q's distance exceeded pair p's
    samples_per_triplet: int
    seed: int

    @property
    def exposure(self):
        # each pair sits in L-2 triples, each sampled samples_per_triplet times
        return (len(self.labels) - 2) * self.samples_per_triplet

    def column_sums(self):
        return self.counts.sum(axis=0)

    def to_csv_text(self):
        names = ["|".join(p) for p in self.pairs]
        rows = [["dominated\\dominator"] + names]
        rows += [[name] + [int(v) for v in row] for name, row in zip(names, self.counts)]
        return csv_text(rows)


def sample_triplet_orderings(train, features, samples_per_triplet=200, seed=0):
    """Build the pairwise dominance matrix from sampled point triples.

    Exact distance ties discard the sample and redraw (bounded rounds); a
    persistent tie is a computation error.  Each label triple consumes its
    own spawned random stream, so results do not depend on evaluation order.
    """
    labels = list(train.labels)
    if len(labels) < 3:
        raise DataError("need at least 3 labels to sample triples, have %d" % len(labels))
    T = int(samples_per_triplet)
    if T < 1:
        raise DataError("samples_per_triplet must be >= 1")
    rows = {lab: train.rows_with_label(lab) for lab in labels}
    for lab in labels:
        if len(rows[lab]) == 0:
            raise DataError("label '%s' has zero training rows" % lab)
    X = feature_matrix(train.table, features)
    X = ZStats.fit(X).transform(X)

    pairs = list(itertools.combinations(range(len(labels)), 2))
    pair_id = {p: k for k, p in enumerate(pairs)}
    counts = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    triples = list(itertools.combinations(range(len(labels)), 3))
    streams = np.random.SeedSequence(seed).spawn(len(triples))

    for t_idx, (a, b, c) in enumerate(triples):
        rng = np.random.default_rng(streams[t_idx])
        ra, rb, rc = rows[labels[a]], rows[labels[b]], rows[labels[c]]
        local_pairs = [pair_id[(a, b)], pair_id[(a, c)], pair_id[(b, c)]]
        dominated = np.full(T, -1, dtype=int)
        pending = np.arange(T)
        for _ in range(MAX_TIE_ROUNDS):
            m = len(pending)
            pa = X[ra[rng.integers(0, len(ra), m)]]
            pb = X[rb[rng.integers(0, len(rb), m)]]
            pc = X[rc[rng.integers(0, len(rc), m)]]
            D = np.column_stack([
                np.linalg.norm(pa - pb, axis=1),
                np.linalg.norm(pa - pc, axis=1),
                np.linalg.norm(pb - pc, axis=1),
            ])
            mins = D.min(axis=1)
            unique_min = (D == mins[:, None]).sum(axis=1) == 1
            dominated[pending[unique_min]] = np.argmin(D[unique_min], axis=1)
            pending = pending[~unique_min]
            if len(pending) == 0:
                break
        if len(pending):
            raise ComputationError(
                "persistent distance ties while sampling labels (%s, %s, %s)"
                % (labels[a], labels[b], labels[c])
            )
        for p_loc in range(3):
            m = int(np.sum(dominated == p_loc))
            if m == 0:
                continue
            p = local_pairs[p_loc]
            for q_loc in range(3):
                if q_loc != p_loc:
                    counts[p, local_pairs[q_loc]] += m

    named_pairs = [(labels[i], labels[j]) for i, j in pairs]
    return DominanceMatrix(
        labels=labels, pairs=named_pairs, counts=counts,
        samples_per_triplet=T, seed=seed,
    )


def dominance_to_distance(dm, normalize=True):
    """Label-by-label relative distance matrix from dominance column sums.

    Normalized values divide by the exposure (L-2)*T and lie in [0, 1].
    """
    L = len(dm.labels)
    if L < 3:
        raise DataError("dominance matrix needs at least 3 labels")
    colsums = dm.column_sums().astype(float)
    if normalize:
        colsums = colsums / dm.exposure
    out = np.zeros((L, L))
    for k, (la, lb) in enumerate(dm.pairs):
        i, j = dm.labels.index(la), dm.labels.index(lb)
        out[i, j] = out[j, i] = colsums[k]
    return out


@dataclass
class LabelTree:
    """Binary tree over labels; node ids follow the Dendrogram convention."""

    labels: list
    dendro: Dendrogram

    @property
    def n_labels(self):
        return len(self.labels)

    @property
    def root(self):
        return 0 if self.n_labels == 1 else 2 * self.n_labels - 2

    def is_leaf(self, node):
        return node < self.n_labels

    def children(self, node):
        left, right, _ = self.dendro.merges[node - self.n_labels]
        return left, right

    def node_labels(self, node):
        """Sorted tuple of label names under a node."""
        return tuple(sorted(self.labels[i] for i in self.dendro.members(node)))

    def topology(self):
        """Set of label-set signatures of all internal nodes."""
        return frozenset(self.node_labels(self.n_labels + k) for k in range(len(self.dendro.merges)))

    def to_newick(self):
        return self.dendro.to_newick()

    def to_json_dict(self):
        nodes = []
        for k, (left, right, h) in enumerate(self.dendro.merges):
            nodes.append({
                "node": self.n_labels + k,
                "left": left,
                "right": right,
                "height": float(h),
                "labels": list(self.node_labels(self.n_labels + k)),
            })
        return {"labels": list(self.labels), "merges": nodes}


def build_label_tree(distance, labels, linkage="average"):
    """Average-linkage tree over a label-by-label relative distance matrix."""
    labels = list(labels)
    distance = np.asarray(distance, dtype=float)
    if distance.shape != (len(labels), len(labels)):
        raise DataError("distance matrix shape does not match labels")
    dendro = agglomerate(distance, linkage=linkage)
    dendro.leaf_names = list(labels)
    return LabelTree(labels=labels, dendro=dendro)


def tree_from_training(train, features, samples_per_triplet=200, seed=0):
    """Convenience route from training data to a LabelTree.

    One or two labels skip dominance sampling: the tree is then trivially a
    single leaf or a single join.
    """
    labels = list(train.labels)
    for lab in labels:
        if len(train.rows_with_label(lab)) == 0:
            raise DataError("label '%s' has zero training rows" % lab)
    if len(labels) == 1:
        return LabelTree(labels=labels, dendro=Dendrogram(n_leaves=1, merges=[], leaf_names=labels))
    if len(labels) == 2:
        return build_label_tree(np.array([[0.0, 1.0], [1.0, 0.0]]), labels)
    dm = sample_triplet_orderings(train, features, samples_per_triplet=samples_per_triplet, seed=seed)
    return build_label_tree(dominance_to_distance(dm), labels)
