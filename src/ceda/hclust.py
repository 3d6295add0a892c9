"""Agglomerative hierarchical clustering on a precomputed distance matrix.

Average, complete and single linkage via Lance-Williams updates.  Ties are
broken by the lexicographically smallest (i, j) node-id pair, so results are
fully deterministic.  Leaves are 0..n-1, internal nodes n..2n-2 in merge
order, matching the usual dendrogram convention.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

LINKAGES = ("average", "complete", "single")


@dataclass
class Dendrogram:
    n_leaves: int
    merges: list                      # (left_node, right_node, height), length n_leaves - 1
    leaf_names: list = field(default=None)

    def members(self, node):
        """Leaf indices under a node id."""
        n = self.n_leaves
        if node < n:
            return [node]
        left, right, _ = self.merges[node - n]
        return self.members(left) + self.members(right)

    def leaf_order(self):
        """Left-to-right leaf ordering for heatmap display."""
        if self.n_leaves == 1:
            return [0]
        return self.members(2 * self.n_leaves - 2)

    def to_newick(self):
        """Newick-style text; internal nodes annotated with merge height."""
        def render(node):
            if node < self.n_leaves:
                return str(self.leaf_names[node]) if self.leaf_names else str(node)
            left, right, h = self.merges[node - self.n_leaves]
            return "(%s,%s):%.6g" % (render(left), render(right), h)

        return render(2 * self.n_leaves - 2 if self.n_leaves > 1 else 0) + ";"


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


def agglomerate(d, linkage="average"):
    """Cluster items of a symmetric zero-diagonal distance matrix.

    The working matrix is indexed by node id and inactive rows hold inf.
    np.argmin scans row-major, so its first occurrence of the minimum is the
    lexicographically smallest (i, j) pair, which is the documented tie rule.
    """
    if linkage not in LINKAGES:
        raise DataError("unknown linkage '%s'" % linkage)
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
        di = work[i, :top].copy()
        dj = work[j, :top].copy()
        if linkage == "average":
            nd = (sizes[i] * di + sizes[j] * dj) / (sizes[i] + sizes[j])
        elif linkage == "complete":
            nd = np.maximum(di, dj)
        else:
            nd = np.minimum(di, dj)
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


@dataclass
class FeatureGroups:
    k: int
    groups: list  # list of lists of leaf indices (or names when resolved)

    def resolve(self, names):
        return FeatureGroups(self.k, [[names[i] for i in g] for g in self.groups])


def cut(dendro, k):
    """Partition into k groups by removing the k-1 highest merges.

    Heights are non-decreasing for the supported linkages, so this keeps the
    first n-k merges.  Groups are ordered by their smallest member.
    """
    n = dendro.n_leaves
    if not 1 <= k <= n:
        raise DataError("k must lie in [1, %d], got %d" % (n, k))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    node_rep = {}
    for idx, (left, right, _) in enumerate(dendro.merges[: n - k]):
        rl = node_rep.get(left, left) if left >= n else find(left)
        rr = node_rep.get(right, right) if right >= n else find(right)
        rl, rr = find(rl), find(rr)
        parent[rr] = rl
        node_rep[n + idx] = rl
    buckets = {}
    for leaf in range(n):
        buckets.setdefault(find(leaf), []).append(leaf)
    groups = sorted(buckets.values(), key=lambda g: g[0])
    return FeatureGroups(k=k, groups=groups)
