"""Agglomerative hierarchical clustering on a precomputed distance matrix,
and the one tree type both the label tree and the mce clustering use.

Average linkage only, via Lance-Williams updates.  Ties are broken by the
lexicographically smallest (i, j) node-id pair, so results are fully
deterministic.  Leaves are 0..n-1, internal nodes n..2n-2 in merge order,
matching the usual dendrogram convention; the root is 2n-2, the one leaf
of a one-leaf tree.

A Dendrogram is navigated by node id: ``is_leaf``, ``children`` (the two
nodes a merge joined), ``members`` (the leaf indices under a node) and
``node_labels`` (their names, sorted).  ``leaf_names`` names the leaves in
the order of the distance matrix's rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class Dendrogram:
    n_leaves: int
    merges: list                      # (left_node, right_node, height), length n_leaves - 1
    leaf_names: list = field(default=None)

    @property
    def root(self):
        return 2 * self.n_leaves - 2

    def is_leaf(self, node):
        return node < self.n_leaves

    def children(self, node):
        left, right, _ = self.merges[node - self.n_leaves]
        return left, right

    def members(self, node):
        """Leaf indices under a node id."""
        if self.is_leaf(node):
            return [node]
        left, right = self.children(node)
        return self.members(left) + self.members(right)

    def node_labels(self, node):
        """Sorted tuple of the leaf names under a node."""
        return tuple(sorted(self.leaf_names[i] for i in self.members(node)))

    def leaf_order(self):
        """Left-to-right leaf ordering for heatmap display."""
        return self.members(self.root)

    def to_newick(self):
        """Newick-style text; internal nodes annotated with merge height.  A leaf
        name holding whitespace or any of ,():;[]' is single-quoted, ' doubled."""
        def render(node):
            if self.is_leaf(node):
                name = str(self.leaf_names[node]) if self.leaf_names else str(node)
                if any(c in ",():;[]'" or c.isspace() for c in name):
                    return "'%s'" % name.replace("'", "''")
                return name
            left, right, h = self.merges[node - self.n_leaves]
            return "(%s,%s):%.6g" % (render(left), render(right), h)

        return render(self.root) + ";"

    def to_json_dict(self):
        """The leaf names, and each merge with its node id, children, height
        and the sorted names under it."""
        merges = [{"node": node, "left": left, "right": right, "height": float(h),
                   "labels": list(self.node_labels(node))}
                  for node, (left, right, h) in enumerate(self.merges, start=self.n_leaves)]
        return {"labels": list(self.leaf_names), "merges": merges}


def _validate_distance_matrix(d):
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DataError("distance matrix must be square")
    if d.shape[0] < 1:
        raise DataError("distance matrix is empty")
    if not np.allclose(d, d.T, rtol=1e-12, atol=1e-12):
        raise DataError("distance matrix is not symmetric")
    if np.any(d < 0):
        raise DataError("distance matrix has negative entries")
    if not np.allclose(np.diag(d), 0.0, atol=1e-12):
        raise DataError("distance matrix diagonal is not zero")
    return 0.5 * (d + d.T)


def agglomerate(d):
    """Average-linkage clustering of a symmetric zero-diagonal distance matrix.

    The working matrix is indexed by node id and inactive rows hold inf.
    np.argmin scans row-major, so its first occurrence of the minimum is the
    lexicographically smallest (i, j) pair, which is the documented tie rule.
    """
    d = _validate_distance_matrix(d)
    n = d.shape[0]
    if n == 1:
        return Dendrogram(n_leaves=1, merges=[])
    size = 2 * n - 1
    work = np.full((size, size), np.inf)
    work[:n, :n] = d
    np.fill_diagonal(work, np.inf)
    sizes = np.zeros(size, dtype=int)
    sizes[:n] = 1
    merges = []
    for step in range(n - 1):
        top = n + step
        sub = work[:top, :top]
        i, j = divmod(int(np.argmin(sub)), top)
        if i > j:
            i, j = j, i
        h = float(sub[i, j])
        nd = (sizes[i] * work[i, :top] + sizes[j] * work[j, :top]) / (sizes[i] + sizes[j])
        nd[i] = nd[j] = np.inf
        new = top
        work[new, :top] = nd
        work[:top, new] = nd
        work[i, :] = np.inf
        work[:, i] = np.inf
        work[j, :] = np.inf
        work[:, j] = np.inf
        sizes[new] = sizes[i] + sizes[j]
        merges.append((i, j, h))
    return Dendrogram(n_leaves=n, merges=merges)


def cut(dendro, k):
    """Partition the leaves into k groups by removing the k-1 highest merges.

    Average-linkage heights are non-decreasing, so the groups are
    the members of each node that the first n-k merges create or leave
    unmerged.  Returns lists of leaf indices, each ascending, ordered by
    their smallest leaf.
    """
    n = dendro.n_leaves
    if not 1 <= k <= n:
        raise DataError("k must lie in [1, %d], got %d" % (n, k))
    merged = {child for left, right, _ in dendro.merges[: n - k] for child in (left, right)}
    return sorted(sorted(dendro.members(node)) for node in range(2 * n - k) if node not in merged)
