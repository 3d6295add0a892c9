"""Agglomeration against a brute-force oracle and cuts."""

import itertools

import numpy as np
import pytest

from ceda.errors import DataError
from ceda.hclust import Dendrogram, agglomerate, cut


# --- oracle -------------------------------------------------------------


def brute_force_merges(d, linkage):
    """Recompute every cluster distance from the original matrix at each
    step.  Ties pick the lexicographically smallest (i, j) id pair."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    members = {i: [i] for i in range(n)}
    active = sorted(members)
    merges = []
    for step in range(n - 1):
        best = None
        for i, j in itertools.combinations(active, 2):
            cross = [d[a, b] for a in members[i] for b in members[j]]
            if linkage == "average":
                dist = sum(cross) / len(cross)
            elif linkage == "complete":
                dist = max(cross)
            else:
                dist = min(cross)
            key = (dist, i, j)
            if best is None or key < best:
                best = key
        dist, i, j = best
        new = n + step
        members[new] = members[i] + members[j]
        active = [a for a in active if a not in (i, j)] + [new]
        merges.append((i, j, dist))
    return merges


def random_distance_matrix(rng, n):
    x = rng.uniform(0.1, 10.0, size=(n, n))
    d = 0.5 * (x + x.T)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("linkage", ["average", "complete", "single"])
def test_matches_brute_force_oracle(linkage):
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        d = random_distance_matrix(rng, n)
        got = agglomerate(d, linkage=linkage).merges
        want = brute_force_merges(d, linkage)
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
        for (_, _, hg), (_, _, hw) in zip(got, want):
            assert hg == pytest.approx(hw, abs=1e-9)


def test_all_equal_distances_follow_the_tie_rule():
    d = np.ones((4, 4)) - np.eye(4)
    got = agglomerate(d, linkage="complete").merges
    assert got == [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]


def test_single_item_is_a_leaf():
    dendro = agglomerate(np.zeros((1, 1)))
    assert dendro.n_leaves == 1
    assert dendro.merges == []
    assert dendro.leaf_order() == [0]


def test_validation_errors():
    with pytest.raises(DataError, match="symmetric"):
        agglomerate(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DataError, match="negative"):
        agglomerate(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DataError, match="diagonal"):
        agglomerate(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DataError, match="square"):
        agglomerate(np.ones((2, 3)))
    with pytest.raises(DataError, match="linkage"):
        agglomerate(np.zeros((2, 2)), linkage="median")


def test_leaf_order_is_a_permutation():
    rng = np.random.default_rng(3)
    d = random_distance_matrix(rng, 7)
    dendro = agglomerate(d)
    assert sorted(dendro.leaf_order()) == list(range(7))


def test_newick_named_leaves():
    d = np.array([[0.0, 1.0, 8.0], [1.0, 0.0, 8.0], [8.0, 8.0, 0.0]])
    dendro = agglomerate(d)
    dendro.leaf_names = ["a", "b", "c"]
    text = dendro.to_newick()
    assert text.endswith(";")
    assert "(a,b)" in text


def test_cut_two_tight_pairs():
    # points 0,1 close; 2,3 close; pairs far apart
    d = np.array([
        [0.0, 0.1, 9.0, 9.0],
        [0.1, 0.0, 9.0, 9.0],
        [9.0, 9.0, 0.0, 0.2],
        [9.0, 9.0, 0.2, 0.0],
    ])
    dendro = agglomerate(d)
    assert cut(dendro, 2).groups == [[0, 1], [2, 3]]
    assert cut(dendro, 1).groups == [[0, 1, 2, 3]]
    assert cut(dendro, 4).groups == [[0], [1], [2], [3]]


def test_cut_matches_oracle_partitions():
    """Removing the k-1 tallest merges equals unioning the first n-k ones."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        d = random_distance_matrix(rng, n)
        dendro = agglomerate(d)
        for k in range(1, n + 1):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            reps = {}
            for idx, (a, b, _) in enumerate(dendro.merges[: n - k]):
                ra = find(reps[a]) if a >= n else find(a)
                rb = find(reps[b]) if b >= n else find(b)
                parent[rb] = ra
                reps[n + idx] = ra
            want = {}
            for leaf in range(n):
                want.setdefault(find(leaf), []).append(leaf)
            want_groups = sorted(want.values(), key=lambda g: g[0])
            assert cut(dendro, k).groups == want_groups


def test_cut_range_checked():
    dendro = agglomerate(np.zeros((2, 2)) + 1 - np.eye(2))
    with pytest.raises(DataError):
        cut(dendro, 0)
    with pytest.raises(DataError):
        cut(dendro, 3)


def test_cut_resolves_names():
    d = np.array([[0.0, 1.0, 8.0], [1.0, 0.0, 8.0], [8.0, 8.0, 0.0]])
    groups = cut(agglomerate(d), 2).resolve(["x", "y", "z"])
    assert groups.groups == [["x", "y"], ["z"]]


def test_dendrogram_members():
    dendro = Dendrogram(n_leaves=3, merges=[(0, 1, 0.5), (3, 2, 1.0)])
    assert dendro.members(3) == [0, 1]
    assert sorted(dendro.members(4)) == [0, 1, 2]
