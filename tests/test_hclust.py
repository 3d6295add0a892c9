"""Agglomeration against a brute-force oracle and scipy's linkage, cuts, and
navigation of the one tree type."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from ceda.association import MceMatrix
from ceda.errors import DataError
from ceda.hclust import Dendrogram, agglomerate, cut


# --- oracle -------------------------------------------------------------


def brute_force_merges(d):
    """Recompute every average-linkage cluster distance from the original
    matrix at each step.  Ties pick the lexicographically smallest (i, j) id
    pair."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    members = {i: [i] for i in range(n)}
    active = sorted(members)
    merges = []
    for step in range(n - 1):
        best = None
        for i, j in itertools.combinations(active, 2):
            cross = [d[a, b] for a in members[i] for b in members[j]]
            dist = sum(cross) / len(cross)
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


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        d = random_distance_matrix(rng, n)
        got = agglomerate(d).merges
        want = brute_force_merges(d)
        assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
        for (_, _, hg), (_, _, hw) in zip(got, want):
            assert hg == pytest.approx(hw, abs=1e-9)


@pytest.mark.parametrize("linkage", ["average"])
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 11))
def test_matches_scipy_linkage(linkage, seed, n):
    # random distances are tie-free, so the merge order is scipy's too
    d = random_distance_matrix(np.random.default_rng(seed), n)
    got = agglomerate(d).merges
    want = scipy_linkage(squareform(d), linkage)
    assert [tuple(sorted((i, j))) for i, j, _ in got] == [(int(i), int(j)) for i, j in np.sort(want[:, :2])]
    np.testing.assert_allclose([h for _, _, h in got], want[:, 2], rtol=1e-12, atol=0)


def test_all_equal_distances_follow_the_tie_rule():
    d = np.ones((4, 4)) - np.eye(4)
    got = agglomerate(d).merges
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


def newick_leaves(text):
    """The leaf names of Newick text, in order, quoted names unquoted."""
    tokens = re.findall(r"(?<=[(,])(?:'((?:[^']|'')*)'|([^,():;\[\]'\s]+))", "(" + text)
    return [bare or quoted.replace("''", "'") for quoted, bare in tokens]


def test_newick_quotes_leaf_names_that_newick_would_split():
    names = ["a", "a|b", "b|c", "c", "c,d", "e(f", "g:h", "it's", "x y", "[z];"]
    rng = np.random.default_rng(5)
    dendro = agglomerate(random_distance_matrix(rng, len(names)))
    dendro.leaf_names = names
    text = dendro.to_newick()
    assert sorted(newick_leaves(text)) == sorted(names)
    for bare in ["a", "a|b", "b|c", "c"]:
        assert re.search(r"[(,]%s[,)]" % re.escape(bare), text)
    assert "'c,d'" in text and "'it''s'" in text and "'x y'" in text
    one = Dendrogram(n_leaves=1, merges=[], leaf_names=["p;q"])
    assert one.to_newick() == "'p;q';" and newick_leaves(one.to_newick()) == ["p;q"]


def test_cut_two_tight_pairs():
    # points 0,1 close; 2,3 close; pairs far apart
    d = np.array([
        [0.0, 0.1, 9.0, 9.0],
        [0.1, 0.0, 9.0, 9.0],
        [9.0, 9.0, 0.0, 0.2],
        [9.0, 9.0, 0.2, 0.0],
    ])
    dendro = agglomerate(d)
    assert cut(dendro, 2) == [[0, 1], [2, 3]]
    assert cut(dendro, 1) == [[0, 1, 2, 3]]
    assert cut(dendro, 4) == [[0], [1], [2], [3]]


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
            assert cut(dendro, k) == want_groups


def test_cut_range_checked():
    dendro = agglomerate(np.zeros((2, 2)) + 1 - np.eye(2))
    with pytest.raises(DataError):
        cut(dendro, 0)
    with pytest.raises(DataError):
        cut(dendro, 3)


def test_cut_resolves_names():
    d = np.array([[0.0, 1.0, 8.0], [1.0, 0.0, 8.0], [8.0, 8.0, 0.0]])
    dendro = agglomerate(d)
    dendro.leaf_names = ["x", "y", "z"]
    assert MceMatrix(["x", "y", "z"], d, dendro, coded={}).groups(2) == [["x", "y"], ["z"]]


def test_dendrogram_members():
    dendro = Dendrogram(n_leaves=3, merges=[(0, 1, 0.5), (3, 2, 1.0)])
    assert dendro.members(3) == [0, 1]
    assert sorted(dendro.members(4)) == [0, 1, 2]


def test_cut_groups_follow_the_display_order():
    # leaves 2, 3 join first, then 0, 1, then the two pairs, and 4 last: the
    # display order e, c, d, a, b differs from the input order a..e
    d = np.full((5, 5), 0.9)
    d[np.ix_([0, 1], [2, 3])] = d[np.ix_([2, 3], [0, 1])] = 0.3
    d[0, 1] = d[1, 0] = 0.2
    d[2, 3] = d[3, 2] = 0.1
    np.fill_diagonal(d, 0.0)
    names = ["a", "b", "c", "d", "e"]
    dendro = agglomerate(d)
    dendro.leaf_names = names
    order = dendro.leaf_order()
    assert order == [4, 2, 3, 0, 1]
    m = MceMatrix([names[i] for i in order], d[np.ix_(order, order)], dendro, coded={})
    assert m.groups(2) == [["e"], ["c", "d", "a", "b"]]
    assert m.groups(3) == [["e"], ["c", "d"], ["a", "b"]]
    assert m.groups(5) == [["e"], ["c"], ["d"], ["a"], ["b"]]


def test_one_leaf_tree():
    tree = agglomerate(np.zeros((1, 1)))
    tree.leaf_names = ["a"]
    assert tree.root == 0
    assert tree.is_leaf(tree.root)
    assert tree.node_labels(0) == ("a",)
    assert tree.to_json_dict() == {"labels": ["a"], "merges": []}
    assert tree.to_newick() == "a;"


def test_two_leaf_tree():
    tree = agglomerate(1.0 - np.eye(2))
    tree.leaf_names = ["b", "a"]
    assert tree.root == 2
    assert [tree.is_leaf(node) for node in range(3)] == [True, True, False]
    assert tree.children(2) == (0, 1)
    assert tree.node_labels(2) == ("a", "b")
    assert tree.to_json_dict() == {"labels": ["b", "a"], "merges": [
        {"node": 2, "left": 0, "right": 1, "height": 1.0, "labels": ["a", "b"]}]}
    assert tree.to_newick() == "(b,a):1;"


def test_three_leaf_tree():
    tree = Dendrogram(n_leaves=3, merges=[(0, 2, 0.5), (1, 3, 1.0)], leaf_names=["x", "y", "z"])
    assert tree.root == 4
    assert [tree.is_leaf(node) for node in range(5)] == [True, True, True, False, False]
    assert tree.children(4) == (1, 3)
    assert tree.children(3) == (0, 2)
    assert tree.node_labels(3) == ("x", "z")
    assert tree.node_labels(4) == ("x", "y", "z")
    assert tree.leaf_order() == [1, 0, 2]
    assert tree.to_newick() == "(y,(x,z):0.5):1;"
    assert [m["labels"] for m in tree.to_json_dict()["merges"]] == [["x", "z"], ["x", "y", "z"]]
