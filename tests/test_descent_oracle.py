"""Batched descent and k-NN vote against per-point reference implementations.

The reference code below decides one point at a time with a full
``lexsort`` of the node distances, a scalar median and two scalar KDEs, as
the package did before the descent was batched.  The batched code must
return exactly the same predictions on any input, including distance ties
(from duplicated rows), k* above the node size, the degenerate threshold
band and a disabled outlier screen.  A descent that passes each point's k*
nearest down the tree must decide as one where every node searches afresh,
and the screened log ratio as the exact KDEs of every open row.

The outlier thresholds of a node come from the exact distance of each row
to every other row, whatever the feature count.
"""

import importlib
import math
from collections import namedtuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from ceda.chain import ChainLink, FeatureChain, chain_categories, knn_baseline_predict
from ceda.dataset import Column, DataTable, LabeledDataset, ZStats, feature_matrix
from ceda.label_tree import build_label_tree, tree_from_training
from ceda.predictive_map import (
    DECISIONS,
    CompetitionConfig,
    TreeClassifier,
    distance_rows,
    k_nearest,
    kd_tree,
    median_rows,
)

# the package exports a function of the same name
predictive_map = importlib.import_module("ceda.predictive_map")

# --- per-point reference ---------------------------------------------------


def ref_bandwidth(sample):
    n = len(sample)
    sd = float(sample.std(ddof=1)) if n > 1 else 0.0
    h = 1.06 * sd * n ** (-0.2)
    if h <= 0.0:
        h = max(1e-9, 1e-3 * abs(float(np.median(sample))))
    return h


def ref_log_kde(sample, x):
    h = ref_bandwidth(sample)
    u = (x - sample) / h
    return float(logsumexp(-0.5 * u * u) - math.log(len(sample) * h * math.sqrt(2.0 * math.pi)))


def ref_exact_nearest_neighbor_distances(Z):
    return np.array([np.delete(np.linalg.norm(Z - Z[i], axis=1), i).min() for i in range(len(Z))])


# one point's descent: labels is () for an outlier, path its (node,
# decision) pairs from the root down
Descent = namedtuple("Descent", "labels stop_node path")


def paths_from_steps(n, steps):
    """Each row's (node, decision name) path, from classify's competition log."""
    paths = [[] for _ in range(n)]
    for node, rows, decisions in steps:
        for row, decision in zip(rows.tolist(), decisions.tolist()):
            paths[row].append((node, DECISIONS[decision]))
    return [tuple(path) for path in paths]


class ReferenceClassifier:
    """One competition per point per node."""

    def __init__(self, tree, train, features, cfg):
        self.tree, self.cfg = tree, cfg
        clf = TreeClassifier(tree, train, features, cfg)
        self.zstats, self.X = clf.zstats, clf.X
        self.y = train.label_values

    def node_rows(self, node):
        return np.flatnonzero(np.isin(self.y, self.tree.node_labels(node)))

    def competition(self, x_raw, node):
        tree, cfg = self.tree, self.cfg
        xz = self.zstats.transform(np.asarray(x_raw, dtype=float).reshape(1, -1))[0]
        rows = self.node_rows(node)
        d = np.linalg.norm(self.X[rows] - xz, axis=1)
        if cfg.outlier_quantile is not None:
            thr = float(np.quantile(ref_exact_nearest_neighbor_distances(self.X[rows]), cfg.outlier_quantile))
            if float(d.min()) > thr:
                return "outlier"
        is_left = np.isin(self.y[rows], tree.node_labels(tree.children(node)[0]))
        k = min(cfg.k_star, len(rows))
        order = np.lexsort((rows, d))
        left_count = int(is_left[order[:k]].sum())
        need = cfg.dominant_fraction * k - 1e-9
        if left_count >= need:
            return "left"
        if (k - left_count) >= need:
            return "right"
        m = float(np.median(d))
        log_ratio = ref_log_kde(d[is_left], m) - ref_log_kde(d[~is_left], m)
        if cfg.pl_lower == cfg.pl_upper:
            return "left" if log_ratio >= math.log(cfg.pl_upper) else "right"
        if log_ratio > math.log(cfg.pl_upper):
            return "left"
        if log_ratio < math.log(cfg.pl_lower):
            return "right"
        return "stop"

    def classify(self, x_raw):
        tree = self.tree
        node = tree.root
        path = []
        while not tree.is_leaf(node):
            decision = self.competition(x_raw, node)
            path.append((node, decision))
            if decision == "outlier":
                return Descent(labels=(), stop_node=node, path=tuple(path))
            if decision == "stop":
                return Descent(labels=tree.node_labels(node), stop_node=node, path=tuple(path))
            left, right = tree.children(node)
            node = left if decision == "left" else right
        return Descent(labels=tree.node_labels(node), stop_node=node, path=tuple(path))


def ref_knn(train, test, features, k):
    Xtr = feature_matrix(train.table, features)
    zs = ZStats.fit(Xtr)
    Ztr = zs.transform(Xtr)
    Zte = zs.transform(feature_matrix(test.table, features))
    labels = sorted(set(train.label_values.tolist()))
    codes = np.array([labels.index(v) for v in train.label_values])
    row_idx = np.arange(len(Ztr))
    out = []
    for x in Zte:
        order = np.lexsort((row_idx, np.linalg.norm(Ztr - x, axis=1)))[:min(k, len(Ztr))]
        out.append(labels[int(np.argmax(np.bincount(codes[order], minlength=len(labels))))])
    return out


# --- random problems -------------------------------------------------------


def dataset(X, y):
    cols = [Column("f%d" % j, "continuous", X[:, j]) for j in range(X.shape[1])]
    return LabeledDataset(DataTable(cols + [Column("label", "categorical", np.array(y, dtype=object))]), "label")


@st.composite
def clouds(draw):
    """Small Gaussian clouds with duplicated training rows (some relabelled)
    and test rows that repeat training rows, so that distances tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_labels = draw(st.integers(1, 5))
    dim = draw(st.sampled_from([1, 2, 3, 9]))
    n_per = draw(st.integers(1, 12))
    labels = list("abcde"[:n_labels])
    centers = rng.normal(0.0, 1.5, (n_labels, dim))
    y = np.repeat(labels, n_per)
    sd = draw(st.sampled_from([0.2, 1.0]))
    X = centers[np.repeat(np.arange(n_labels), n_per)] + sd * rng.normal(size=(len(y), dim))
    dup = rng.integers(0, len(y), draw(st.integers(0, 12)))
    X = np.vstack([X, X[dup]])
    y = np.concatenate([y, rng.choice(labels, len(dup))])
    Xte = np.vstack([
        X[rng.integers(0, len(y), 6)],
        centers[rng.integers(0, n_labels, 10)] + rng.normal(size=(10, dim)),
        np.full((1, dim), 25.0),
    ])
    train = dataset(X, y)
    test = dataset(Xte, rng.choice(labels, len(Xte)))
    return train, test, random_tree(rng, train, labels)


def random_tree(rng, train, labels):
    """A label tree from random label distances, or from the training rows
    for fewer than three labels."""
    if len(labels) < 3:
        return tree_from_training(train, train.feature_names())
    dist = rng.uniform(0.1, 1.0, (len(labels), len(labels)))
    dist = dist + dist.T
    np.fill_diagonal(dist, 0.0)
    return build_label_tree(dist, labels)


bands = st.sampled_from([(0.65, 100.0 / 65.0), (1.0, 1.0), (0.2, 1.0), (0.9, 3.0)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=clouds(), k_star=st.integers(1, 40), band=bands,
       outlier_quantile=st.sampled_from([None, 0.5, 0.9, 0.99]),
       dominant_fraction=st.sampled_from([0.6, 0.9, 1.0]),
       block_bytes=st.sampled_from([1, 200, predictive_map.BLOCK_BYTES]))
def test_batched_classify_matches_per_point_reference(problem, k_star, band, outlier_quantile,
                                                      dominant_fraction, block_bytes):
    train, test, tree = problem
    cfg = CompetitionConfig(k_star=k_star, pl_lower=band[0], pl_upper=band[1],
                            dominant_fraction=dominant_fraction, outlier_quantile=outlier_quantile)
    features = train.feature_names()
    ref = ReferenceClassifier(tree, train, features, cfg)
    want = [ref.classify(x) for x in feature_matrix(test.table, features)]
    with mock.patch.object(predictive_map, "BLOCK_BYTES", block_bytes):
        stop, outlier, steps = TreeClassifier(tree, train, features, cfg).classify_rows(test.table)
    assert stop.tolist() == [d.stop_node for d in want]
    assert outlier.tolist() == [d.labels == () for d in want]
    assert paths_from_steps(len(want), steps) == [d.path for d in want]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=clouds(), k_star=st.integers(1, 40),
       block_bytes=st.sampled_from([1, 200, predictive_map.BLOCK_BYTES]))
def test_classify_runs_one_competition_per_internal_node_visited(problem, k_star, block_bytes):
    train, test, tree = problem
    features = train.feature_names()
    clf = TreeClassifier(tree, train, features, CompetitionConfig(k_star=k_star))
    nodes = []
    competition = clf.competition

    def count(Z, node, near=None):
        nodes.append(node)
        return competition(Z, node, near)

    with mock.patch.object(predictive_map, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(clf, "competition", side_effect=count):
        _, _, steps = clf.classify_rows(test.table)
    visited = [node for node, _, _ in steps]
    assert nodes == visited
    # each node at most once, and level by level: a node's parent ran before it
    assert len(set(visited)) == len(visited)
    depth = {tree.root: 0}
    for node in visited:
        for child in tree.children(node):
            depth[child] = depth[node] + 1
    assert [depth[node] for node in visited] == sorted(depth[node] for node in visited)


@st.composite
def deep_trees(draw):
    """Up to six labels of uneven sizes (some below k*, so deep nodes may
    hold fewer than k* rows) on one to six features, with duplicated rows
    relabelled and, on an integer grid, rows that tie at the k-th distance
    across a branch boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_labels = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 6))
    labels = np.array(list("abcdef"[:n_labels]))
    leaf = np.repeat(np.arange(n_labels), rng.integers(1, draw(st.integers(2, 40)), n_labels))
    centers = rng.normal(0.0, draw(st.sampled_from([0.5, 3.0])), (n_labels, dim))
    X = centers[leaf] + rng.normal(size=(len(leaf), dim))
    Xte = np.vstack([X[rng.integers(0, len(X), 8)], centers[rng.integers(0, n_labels, 12)] + rng.normal(size=(12, dim))])
    if draw(st.booleans()):
        X, Xte = np.round(X), np.round(Xte)
    dup = rng.integers(0, len(X), draw(st.integers(0, 20)))
    train = dataset(np.vstack([X, X[dup]]), np.concatenate([labels[leaf], rng.choice(labels, len(dup))]))
    test = dataset(Xte, rng.choice(labels, len(Xte)))
    return train, test, random_tree(rng, train, labels.tolist())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=deep_trees(), k_star=st.integers(1, 40), outlier_quantile=st.sampled_from([None, 0.5, 0.99]))
def test_passed_down_neighbours_decide_as_a_fresh_search(problem, k_star, outlier_quantile):
    train, test, tree = problem
    cfg = CompetitionConfig(k_star=k_star, outlier_quantile=outlier_quantile)
    clf = TreeClassifier(tree, train, train.feature_names(), cfg)
    stop, outlier, steps = clf.classify_rows(test.table)
    competition = clf.competition
    with mock.patch.object(clf, "competition", side_effect=lambda Z, node, near=None: competition(Z, node)):
        want_stop, want_outlier, want_steps = clf.classify_rows(test.table)
    assert stop.tolist() == want_stop.tolist()
    assert outlier.tolist() == want_outlier.tolist()
    assert [(node, rows.tolist(), decisions.tolist()) for node, rows, decisions in steps] == \
        [(node, rows.tolist(), decisions.tolist()) for node, rows, decisions in want_steps]


def descent_lists(descent):
    stop, outlier, steps = descent
    return stop.tolist(), outlier.tolist(), [(node, rows.tolist(), d.tolist()) for node, rows, d in steps]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=st.one_of(clouds(), deep_trees()), k_star=st.integers(1, 40), band=bands,
       outlier_quantile=st.sampled_from([None, 0.9]))
def test_screened_log_ratio_decides_as_the_exact_kdes(problem, k_star, band, outlier_quantile):
    # an infinite margin sends every open row to the exact KDEs
    train, test, tree = problem
    cfg = CompetitionConfig(k_star=k_star, pl_lower=band[0], pl_upper=band[1], outlier_quantile=outlier_quantile)
    clf = TreeClassifier(tree, train, train.feature_names(), cfg)
    shipped = descent_lists(clf.classify_rows(test.table))
    with mock.patch.object(predictive_map, "_kde_margin", lambda n: math.inf):
        assert descent_lists(clf.classify_rows(test.table)) == shipped


def exact_kde_rows(clf, test):
    """classify's steps, with the decision names, and each open row's
    screened log ratio and whether it took the exact KDEs."""
    estimates, exact = [], []
    screen, kde = predictive_map._screened_log_ratio, predictive_map.log_gaussian_kde

    def screened(d, x, n_left, work):
        estimates.append(screen(d, x, n_left, work))
        return estimates[-1].copy()

    def counted(samples, x):
        exact.append(len(x))
        return kde(samples, x)

    with mock.patch.object(predictive_map, "_screened_log_ratio", screened), \
            mock.patch.object(predictive_map, "log_gaussian_kde", counted):
        _, _, steps = clf.classify_rows(test.table)
    paths = paths_from_steps(test.n_rows, steps)
    return paths, np.concatenate(estimates), sum(exact) // 2


def test_an_underflowing_branch_takes_the_exact_kdes():
    # 'a' packed in [0, 0.009], 'b' spread over [-5, 5]: from 0.5 the k*
    # nearest mix both labels, and at the median distance every kernel term
    # of 'a' underflows, so the screen leaves the row to the exact KDEs
    X = np.concatenate([np.arange(10) * 1e-3, np.linspace(-5.0, 5.0, 40)])[:, None]
    train = dataset(X, ["a"] * 10 + ["b"] * 40)
    test = dataset(np.array([[0.5]]), ["a"])
    tree = tree_from_training(train, ["f0"])
    cfg = CompetitionConfig(outlier_quantile=None)
    paths, estimates, exact = exact_kde_rows(TreeClassifier(tree, train, ["f0"], cfg), test)
    assert np.isnan(estimates).all() and exact == 1
    assert paths == [ReferenceClassifier(tree, train, ["f0"], cfg).classify([0.5]).path]


@pytest.mark.parametrize("band,decision", [((0.65, 1.0), "stop"), ((1.0, 1.0), "left")])
def test_a_log_ratio_on_the_threshold_takes_the_exact_kdes(band, decision):
    # integer rows mirrored about 0 z-score to mirrored values, so from 0 both
    # branches hold the same distances: the exact log ratio is 0.0, and
    # pl_upper = exp(0.0) = 1.0.  The strict band stops there and the
    # degenerate band sends the row left
    p = np.arange(1.0, 13.0)
    train = dataset(np.concatenate([p, -p])[:, None], ["a"] * 12 + ["b"] * 12)
    test = dataset(np.array([[0.0]]), ["a"])
    tree = tree_from_training(train, ["f0"])
    cfg = CompetitionConfig(pl_lower=band[0], pl_upper=band[1], outlier_quantile=None)
    paths, estimates, exact = exact_kde_rows(TreeClassifier(tree, train, ["f0"], cfg), test)
    assert estimates.tolist() == [0.0] and exact == 1
    want = ReferenceClassifier(tree, train, ["f0"], cfg).classify([0.0]).path
    assert paths == [want] == [((tree.root, decision),)]


@pytest.mark.parametrize("dim", [2, 3])
def test_competitions_below_the_root_search_no_row_of_well_separated_clouds(dim):
    # clouds 100 apart: a row's k* nearest at the root are of its own label,
    # so they lie in every node down to its leaf and only the root searches
    rng = np.random.default_rng(11)
    labels = list("abcdef")
    leaf = np.repeat(np.arange(6), 50)
    centers = 100.0 * rng.normal(size=(6, dim))
    train = dataset(centers[leaf] + rng.normal(size=(len(leaf), dim)), np.array(labels)[leaf])
    test = dataset(centers[leaf[::5]] + rng.normal(size=(len(leaf[::5]), dim)), np.array(labels)[leaf[::5]])
    tree = tree_from_training(train, train.feature_names())
    clf = TreeClassifier(tree, train, train.feature_names(), CompetitionConfig(outlier_quantile=None))
    with mock.patch.object(predictive_map, "k_nearest", wraps=k_nearest) as calls:
        stop, _, steps = clf.classify_rows(test.table)
    assert len(steps) >= 5 and all(tree.is_leaf(node) for node in stop.tolist())
    assert [len(call.args[0]) for call in calls.call_args_list] == [len(test.label_values)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=clouds(), k=st.integers(1, 40), block_bytes=st.sampled_from([1, 200, predictive_map.BLOCK_BYTES]))
def test_batched_knn_matches_per_point_vote(problem, k, block_bytes):
    train, test, _ = problem
    features = train.feature_names()
    with mock.patch.object(predictive_map, "BLOCK_BYTES", block_bytes):
        got = knn_baseline_predict(train, test, features, k=k)
    assert got == ref_knn(train, test, features, k)


def outlier_threshold(X, leaf, in_node, q):
    """``TreeClassifier._outlier_threshold`` at the node of training rows
    X[in_node], each row of label leaf[row], with the node rows it asked
    ``k_nearest`` for their exact distance."""
    R = X[in_node]
    clf = SimpleNamespace(cfg=CompetitionConfig(outlier_quantile=q), X=X, leaf=leaf,
                          tree=SimpleNamespace(leaf_names=list(range(leaf.max() + 1))), _bound=None)
    with mock.patch.object(predictive_map, "k_nearest", wraps=k_nearest) as calls:
        threshold = TreeClassifier._outlier_threshold(clf, R, in_node, kd_tree(R))
    asks = [call.args[0] for call in calls.call_args_list if call.args[1] is R]
    return threshold, sum(len(Q) for Q in asks)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 600), dim=st.sampled_from([1, 2, 3, 9, 32]),
       n_dup=st.integers(0, 40), grid=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       n_labels=st.integers(1, 40), n_single=st.integers(0, 3))
def test_outlier_threshold_has_the_bits_of_the_exact_quantile(seed, n, dim, n_dup, grid, scale, n_labels, n_single):
    # every feature count, with the node's KD tree (one or two features)
    # and the screen's Gram form (more).  Labels are drawn row by row, so a
    # row's own-label bound is often far above its distance in the node and
    # the high quantiles ask in several batches; the first n_single rows are
    # one-row labels, whose bound is inf
    rng = np.random.default_rng(seed)
    X = scale * rng.normal(size=(n, dim))
    if grid:
        X = np.round(X / scale, 1) * scale  # equal distances between many pairs
    X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]
    leaf = rng.integers(0, n_labels, n)
    leaf[:n_single] = n_labels + np.arange(min(n_single, n))
    labels = np.unique(leaf)
    in_node = np.isin(leaf, rng.choice(labels, int(rng.integers(1, len(labels) + 1)), replace=False))
    if np.count_nonzero(in_node) < 2:
        in_node[:] = True
    want = ref_exact_nearest_neighbor_distances(X[in_node])
    for q in (0.01, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999):
        threshold, asked = outlier_threshold(X, leaf, in_node, q)
        assert np.float64(threshold).tobytes() == np.quantile(want, q).tobytes()
        assert asked <= len(want)


@pytest.mark.parametrize("n, q", [(61, 0.95), (101, 0.7)])
def test_outlier_threshold_reads_the_index_np_quantile_rounds_down(n, q):
    # at these node sizes np.quantile's index n q + (1 - q) - 1 rounds
    # below floor((n - 1) q), so it reads one order statistic lower, and
    # several of these nodes stop asking exactly when that one is exact
    assert math.floor(n * q + (1 - q) - 1) == math.floor((n - 1) * q) - 1
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        threshold, _ = outlier_threshold(X, rng.integers(0, 6, n), np.ones(n, dtype=bool), q)
        assert threshold == float(np.quantile(ref_exact_nearest_neighbor_distances(X), q))


@pytest.mark.parametrize("dim", [2, 3])
def test_outlier_threshold_asks_one_batch_when_the_bounds_are_exact(dim):
    # labels 1000 apart: each row's nearest other node row is of its own
    # label, so every bound is exact and the first batch of 2 need + 16
    # rows already holds the need largest distances
    rng = np.random.default_rng(5)
    leaf = np.repeat(np.arange(10), 120)
    X = rng.normal(size=(len(leaf), dim)) + 1000.0 * rng.normal(size=(10, dim))[leaf]
    in_node = leaf < 9
    n = np.count_nonzero(in_node)
    need = n - math.floor((n - 1) * 0.99) + 1
    threshold, asked = outlier_threshold(X, leaf, in_node, 0.99)
    assert n >= 1000 and 0 < asked <= 2 * need + 16
    assert threshold == float(np.quantile(ref_exact_nearest_neighbor_distances(X[in_node]), 0.99))


def test_outlier_bounds_are_built_once_and_only_for_the_outlier_screen():
    rng = np.random.default_rng(7)
    labels = list("abcd")
    y = np.repeat(labels, 15)
    train = dataset(rng.normal(size=(len(y), 3)) + 3.0 * np.repeat(np.arange(4), 15)[:, None], y)
    tree = build_label_tree(np.array([[0.0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]), labels)
    features = train.feature_names()
    for quantile, bound_calls in ((None, 0), (0.99, len(labels))):
        clf = TreeClassifier(tree, train, features, CompetitionConfig(outlier_quantile=quantile))
        with mock.patch.object(predictive_map, "k_nearest", wraps=k_nearest) as calls:
            _, _, steps = clf.classify_rows(train.table)
        assert len(steps) > 1
        # a label's bounds are its rows' nearest among themselves
        assert sum(call.args[0] is call.args[1] for call in calls.call_args_list) == bound_calls


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n_labels=st.integers(1, 5),
       dims=st.lists(st.sampled_from([1, 2, 3, 9]), min_size=1, max_size=3),
       k_star=st.integers(1, 30), outlier_quantile=st.sampled_from([None, 0.9]))
def test_counts_conserve_down_a_random_chain(seed, n_labels, dims, k_star, outlier_quantile):
    # one link per drawn feature count, so both screen forms run end to end
    rng = np.random.default_rng(seed)
    labels = list("abcde"[:n_labels])
    centers = rng.normal(0.0, 1.0, (n_labels, 9))

    def clouds_of(n_per):
        y = np.repeat(labels, n_per)
        return dataset(centers[np.repeat(np.arange(n_labels), n_per)] + rng.normal(size=(len(y), 9)), y)

    train, test = clouds_of(int(rng.integers(3, 15))), clouds_of(int(rng.integers(1, 10)))
    cfg = CompetitionConfig(k_star=k_star, outlier_quantile=outlier_quantile)
    chain = FeatureChain([
        ChainLink("l%d" % i, tuple("f%d" % j for j in sorted(rng.choice(9, dim, replace=False))), cfg)
        for i, dim in enumerate(dims)
    ])
    result = chain_categories(test, train, chain, samples_per_triplet=10, seed=seed)
    assert result.verify_conservation()
    want = [int(np.count_nonzero(test.label_values == lab)) for lab in test.labels]
    settled = np.zeros(len(want), dtype=int)
    for table in result.tables:
        # this depth's columns plus the rows certain at a shallower depth
        columns = sum((cat.counts for cat in table.categories), np.zeros(len(want), dtype=int))
        assert (columns + settled).tolist() == want
        settled += sum((cat.counts for cat in table.categories if cat.certain), np.zeros(len(want), dtype=int))
    assert settled.tolist() == want or len(result.tables) == len(chain.links)


# --- the k-nearest kernel and its blocks -----------------------------------


def ref_distance_rows(Q, R):
    return np.array([np.linalg.norm(R - q, axis=1) for q in Q]).reshape(len(Q), len(R))


def ref_k_nearest(Q, R, k):
    """Per row: the first k reference rows by (distance, row) and their
    distances."""
    dist = ref_distance_rows(Q, R)
    idx = np.array([np.lexsort((np.arange(len(R)), row))[:k] for row in dist]).reshape(len(Q), -1)
    return np.take_along_axis(dist, idx, axis=1), idx


def screens(R):
    """Keyword arguments of k_nearest for each path that serves R: the
    tree-less screen always (exact distances for one or two features, the
    Gram form for more), the KD tree for one or two features."""
    tree = kd_tree(R)
    return [{}] + ([] if tree is None else [{"tree": tree}])


def assert_k_nearest(got, want):
    (dist, idx), (want_dist, want_idx) = got, want
    assert np.array_equal(idx, want_idx)
    assert dist.tobytes() == want_dist.tobytes()


@st.composite
def kernel_problems(draw):
    """Query and reference rows that stress the screens: grid values with
    heavy ties (the coarsest holds only -1, 0 and 1), duplicated rows,
    queries that repeat reference rows, and a large constant offset that
    cancels most digits of the Gram form."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 9, 32]))
    m, n = draw(st.integers(1, 25)), draw(st.integers(1, 60))
    Q, R = rng.normal(size=(m, dim)), rng.normal(size=(n, dim))
    grid = draw(st.sampled_from([None, 10.0, 1.0]))
    if grid is not None:
        Q, R = np.round(Q * grid), np.round(R * grid)
    n_dup = draw(st.integers(0, n))
    R[rng.integers(0, n, n_dup)] = R[rng.integers(0, n, n_dup)]
    n_rep = draw(st.integers(0, m))
    Q[:n_rep] = R[rng.integers(0, n, n_rep)]
    offset, scale = draw(st.sampled_from([(0.0, 1.0), (0.0, 1e-3), (1e3, 1.0), (1e6, 1e-3)]))
    return offset + scale * Q, offset + scale * R, draw(st.integers(1, n + 3))


@settings(max_examples=300, deadline=None)
@given(problem=kernel_problems())
def test_k_nearest_screens_match_per_row_reference(problem):
    Q, R, k = problem
    want = ref_k_nearest(Q, R, k)
    assert want[0][:, 0].tobytes() == ref_distance_rows(Q, R).min(axis=1).tobytes()
    for screen in screens(R):
        assert_k_nearest(k_nearest(Q, R, k, **screen), want)
        # one row per block, every block on the call's one work buffer
        with mock.patch.object(predictive_map, "BLOCK_BYTES", 1):
            assert_k_nearest(k_nearest(Q, R, k, **screen), want)


@st.composite
def kernel_calls(draw):
    """Two kernel problems of different shapes with the same feature count,
    on a coarse grid so that distances tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 9]))
    calls = []
    for _ in range(2):
        m, n = draw(st.integers(1, 30)), draw(st.integers(1, 60))
        calls.append((np.round(rng.normal(size=(m, dim)), 1), np.round(rng.normal(size=(n, dim)), 1),
                      draw(st.integers(1, n))))
    return calls


@settings(max_examples=100, deadline=None)
@given(calls=kernel_calls(), block_bytes=st.sampled_from([1, 200, predictive_map.BLOCK_BYTES]))
def test_k_nearest_on_one_work_buffer_matches_fresh_calls(calls, block_bytes):
    # distance_rows on one buffer sized for the larger call, and k_nearest
    # with its blocks on its own buffer, match fresh per-row references
    work = np.empty(max(len(Q) * len(R) * predictive_map.row_cells(Q.shape[1]) for Q, R, _ in calls))
    for Q, R, k in calls:
        dist = distance_rows(Q, R, work)
        assert np.shares_memory(dist, work)
        assert dist.tobytes() == ref_distance_rows(Q, R).tobytes()
        for screen in screens(R):
            with mock.patch.object(predictive_map, "BLOCK_BYTES", block_bytes):
                assert_k_nearest(k_nearest(Q, R, k, **screen), ref_k_nearest(Q, R, k))


def test_kd_path_searches_every_row_only_on_a_tie_at_the_kth_distance():
    # from x=0 the sorted distances are 1, 2, 2, 2, 2, 10, 10: the 3rd and
    # 4th tie, so k=3 needs the screen of every node row to keep the lowest
    # rows 0 and 1; from x=1 they are 0, 1, 1, 1, 1, 9, 11, and k=1 has no tie
    R = np.array([2.0, 2.0, 1.0, 2.0, 2.0, 10.0, -10.0])[:, None]
    tree = kd_tree(R)
    with mock.patch.object(predictive_map, "_screen", wraps=predictive_map._screen) as screen:
        dist, idx = k_nearest(np.array([[1.0]]), R, 1, tree=tree)
        assert screen.call_count == 0
        assert idx.tolist() == [[2]] and dist.tolist() == [[0.0]]
        dist, idx = k_nearest(np.array([[0.0], [1.0]]), R, 3, tree=tree)
        assert screen.call_count == 1
        assert idx.tolist() == [[2, 0, 1], [2, 0, 1]] and dist.tolist() == [[1.0, 2.0, 2.0], [0.0, 1.0, 1.0]]
        # no more reference rows than k: the tree pads the 8th with inf, so
        # no row ties and the tree answers alone
        dist, idx = k_nearest(np.array([[0.0]]), R, 9, tree=tree)
        assert screen.call_count == 1
        assert idx.tolist() == [[2, 0, 1, 3, 4, 5, 6]]


def node_rows(n, dim, grid, seed):
    """n rows of six Gaussian clouds in dim features, as a node of the
    predictive map holds them; rounded to thirds when grid, so that almost
    every query ties."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 3.0, size=(6, dim))
    X = centers[rng.integers(0, 6, n)] + 0.4 * rng.normal(size=(n, dim))
    return np.round(X * 3.0) / 3.0 if grid else X


@pytest.mark.parametrize("k", [1, 2, 20, 21])
@pytest.mark.parametrize("grid", [False, True], ids=["clouds", "thirds"])
@pytest.mark.parametrize("n", [500, 5000])
@pytest.mark.parametrize("dim", [1, 2])
def test_kd_tree_path_at_node_sizes_matches_per_row_reference(dim, n, grid, k):
    # trees many leaves deep, and on thirds tie groups of hundreds of rows,
    # unlike kernel_problems' at most 60 rows; both paths, the tree-less
    # screen with every tied row a candidate.  Half the queries repeat
    # reference rows, so the self distance 0 comes first
    R = node_rows(n, dim, grid, seed=dim * n)
    Q = np.concatenate([node_rows(60, dim, grid, seed=dim * n + 1), R[::n // 60][:60]])
    want = ref_k_nearest(Q, R, k)
    for screen in screens(R):
        assert_k_nearest(k_nearest(Q, R, k, **screen), want)


@pytest.mark.parametrize("k", [2, 21])
@pytest.mark.parametrize("grid", [False, True], ids=["clouds", "thirds"])
@pytest.mark.parametrize("n", [500, 5000])
@pytest.mark.parametrize("dim", [3, 6])
def test_gram_path_at_node_sizes_matches_per_row_reference(dim, n, grid, k):
    # the tree-less Gram form at node sizes, where on thirds the k-th value
    # ties across many rows, every one of them a candidate
    R = node_rows(n, dim, grid, seed=dim * n)
    Q = np.concatenate([node_rows(20, dim, grid, seed=dim * n + 1), R[::n // 20][:20]])
    assert screens(R) == [{}]
    assert_k_nearest(k_nearest(Q, R, k), ref_k_nearest(Q, R, k))


@pytest.mark.parametrize("grid", [False, True], ids=["clouds", "thirds"])
@pytest.mark.parametrize("dim", [1, 2])
def test_kd_path_with_k_above_the_node_rows_takes_every_row_from_the_tree(dim, grid):
    # a 12-row node at k = 20: the tree pads the missing neighbours with
    # inf, so no row ties at the k-th distance and none takes the screen
    R = node_rows(12, dim, grid, seed=dim)
    Q = np.concatenate([node_rows(30, dim, grid, seed=dim + 1), R])
    with mock.patch.object(predictive_map, "_screen", wraps=predictive_map._screen) as screen:
        got = k_nearest(Q, R, 20, tree=kd_tree(R))
    assert screen.call_count == 0
    assert_k_nearest(got, ref_k_nearest(Q, R, 20))


def test_kd_path_re_sorts_only_rows_with_equal_distances_among_the_first_k():
    # from x=0 the distances are 3, 5, 8, 1 and 1: the first three hold a
    # tie, but the 3rd and 4th do not, so the tree's answer is re-sorted to
    # put row 3 before row 4 (scipy 1.17 gives row 4 first), with no
    # screen
    R = np.array([3.0, 5.0, 8.0, 1.0, -1.0])[:, None]
    with mock.patch.object(predictive_map, "_screen", wraps=predictive_map._screen) as screen, \
            mock.patch.object(predictive_map.np, "lexsort", wraps=np.lexsort) as lexsort:
        dist, idx = k_nearest(np.array([[0.0]]), R, 3, tree=kd_tree(R))
    assert lexsort.call_count == 1 and screen.call_count == 0
    assert idx.tolist() == [[3, 4, 0]] and dist.tolist() == [[1.0, 1.0, 3.0]]


def test_kd_path_without_equal_distances_takes_the_tree_order_as_it_is():
    R, Q = node_rows(2000, 2, False, seed=7), node_rows(300, 2, False, seed=8)
    want = ref_k_nearest(Q, R, 21)
    assert np.all(np.diff(want[0], axis=1) > 0)
    with mock.patch.object(predictive_map.np, "lexsort", wraps=np.lexsort) as lexsort:
        got = k_nearest(Q, R, 21, tree=kd_tree(R))
    assert lexsort.call_count == 0
    assert_k_nearest(got, want)


def test_screen_keeps_every_row_at_the_kth_value():
    # every row at the origin: all values (and the Gram form's margin) are
    # 0, so every row equals the k-th value and is a candidate, and the
    # stable sort of the whole padded row keeps the lowest two
    for dim in (1, 2, 3):
        Q, R = np.zeros((2, dim)), np.zeros((5, dim))
        with mock.patch.object(predictive_map.np, "argsort", wraps=np.argsort) as argsort:
            dist, idx = k_nearest(Q, R, 2)
        assert argsort.call_args.args[0].shape == (2, 5)
        assert idx.tolist() == [[0, 1], [0, 1]] and dist.tolist() == [[0.0, 0.0], [0.0, 0.0]]


# --- the median of the open rows -------------------------------------------

# distances: non-negative, so never -0.0; small integers tie, and pairs of
# the largest values overflow to inf when the two middle ones are summed
distance_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf]),
    st.floats(0.0, 1e-300),
    st.floats(1e300, np.finfo(float).max),
    st.floats(0.0, math.inf),
)


@settings(max_examples=500, deadline=None)
@given(d=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 69)), elements=distance_values),
       spare=st.integers(0, 9))
def test_median_rows_has_the_bits_of_np_median(d, spare):
    # d is the head of a larger work buffer, as distance_rows leaves it
    m, n = d.shape
    work = np.full(2 * m * n + spare, 7.0)
    head = work[:m * n].reshape(m, n)
    head[...] = d
    with np.errstate(over="ignore"):
        got = median_rows(head, work)
        want = np.median(d, axis=1)
        per_row = np.array([np.median(row) for row in d])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got.view(np.int64).tolist() == per_row.view(np.int64).tolist()
    assert head.tobytes() == d.tobytes()
    assert np.all(work[2 * m * n:] == 7.0)


def np_median_rows(d, work):
    return np.median(d, axis=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("band", [(0.65, 100.0 / 65.0), (1.0, 1.0)])
def test_nan_distances_decide_as_with_np_median(dim, band):
    # a NaN in the first distance of every open row but the first: the
    # partition puts it last and gives a number where np.median gives NaN,
    # but the NaN also makes the left branch's KDE NaN, so the decisions agree
    rng = np.random.default_rng(dim)
    train = dataset(np.vstack([rng.normal(0.0, 1.0, (30, dim)), rng.normal(0.8, 1.0, (30, dim))]),
                    ["a"] * 30 + ["b"] * 30)
    tree = tree_from_training(train, train.feature_names())
    cfg = CompetitionConfig(pl_lower=band[0], pl_upper=band[1])
    clf = TreeClassifier(tree, train, train.feature_names(), cfg)
    Z = clf.zstats.transform(rng.normal(0.4, 1.0, (12, dim)))
    if dim > 2:
        Z[0, 0] = np.nan  # the KD tree of one or two features refuses a NaN query
    medians = []

    def with_nan(median):
        def inject(d, work):
            d[1:, 0] = np.nan
            medians.append(median(d, work))
            return medians[-1]
        return inject

    with np.errstate(all="ignore"):
        plain = clf.competition(Z, tree.root)
        with mock.patch.object(predictive_map, "median_rows", np_median_rows):
            assert clf.competition(Z, tree.root).tolist() == plain.tolist()
        with mock.patch.object(predictive_map, "median_rows", with_nan(median_rows)):
            got = clf.competition(Z, tree.root)
        with mock.patch.object(predictive_map, "median_rows", with_nan(np_median_rows)):
            want = clf.competition(Z, tree.root)
    assert got.tolist() == want.tolist()
    # one block each; every open row but the first holds the NaN
    helper, reference = medians
    assert len(helper) > 1 and np.isfinite(helper[1:]).all() and np.isnan(reference[1:]).all()


# --- hand-made ties --------------------------------------------------------


def test_ties_at_the_kth_distance_keep_the_lowest_rows():
    # query at x=0: row 2 (x=1) is nearest; rows 0, 1, 3, 4 (x=2) tie at the
    # 3rd distance; k=3 keeps rows 0 and 1, so 'a' holds 2 of the 3 nearest
    xs = [2.0, 2.0, 1.0, 2.0, 2.0, 10.0, -10.0]
    ys = ["a", "a", "b", "b", "b", "b", "a"]
    train = dataset(np.array(xs)[:, None], ys)
    test = dataset(np.array([[0.0]]), ["a"])
    tree = tree_from_training(train, ["f0"])
    cfg = CompetitionConfig(k_star=3, dominant_fraction=0.6, outlier_quantile=None)
    clf = TreeClassifier(tree, train, ["f0"], cfg)
    Z = clf.zstats.transform([[0.0]])
    R = clf.X  # the root holds every training row
    for screen in screens(R):
        assert k_nearest(Z, R, 3, **screen)[1].tolist() == [[2, 0, 1]]
    assert clf.competition(Z, tree.root).tolist() == [DECISIONS.index("left")]  # left leaf is 'a'
    assert knn_baseline_predict(train, test, ["f0"], k=3) == ["a"]
    # the same rows in reverse order: the lowest tied rows now carry 'b'
    flipped = dataset(np.array(xs[::-1])[:, None], ys[::-1])
    clf = TreeClassifier(tree_from_training(flipped, ["f0"]), flipped, ["f0"], cfg)
    assert clf.competition(clf.zstats.transform([[0.0]]), tree.root).tolist() == [DECISIONS.index("right")]
    assert knn_baseline_predict(flipped, test, ["f0"], k=3) == ["b"]
