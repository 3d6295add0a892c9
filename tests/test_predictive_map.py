"""Branch competitions, KDE pieces and the predictive map tabulation."""

import importlib
import logging
import math
import re
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ceda.dataset import synth_generate
from ceda.errors import ConfigError, DataError
from ceda.label_tree import build_label_tree, tree_from_training
from ceda.predictive_map import (
    DECISIONS,
    CompetitionConfig,
    TreeClassifier,
    _kde_margin,
    _logsumexp_rows,
    _screened_log_ratio,
    log_gaussian_kde,
    median_rows,
    predicted_sets,
    predictive_map,
    set_name,
    silverman_bandwidth,
    tabulate_predictions,
)


def two_clouds(sd=0.05, n=40, spacing=4.0, seed=0):
    # centers offset in both coordinates so the clouds stay separable after
    # the train z-scoring (a pure-noise feature would be blown up to unit
    # variance and drown a single-axis offset)
    return synth_generate(
        "gauss-clouds",
        {"centers": [[0, 0], [spacing, spacing]], "sd": sd, "n_per_label": n},
        seed=seed,
    )


# --- kernel pieces -------------------------------------------------------


def test_silverman_matches_hand_formula():
    sample = [1.0, 2.0, 3.0, 4.0]
    want = 1.06 * statistics.stdev(sample) * 4 ** (-0.2)
    assert silverman_bandwidth(sample) == pytest.approx(want, abs=1e-15)


def test_silverman_degenerate_floor():
    assert silverman_bandwidth([5.0]) == pytest.approx(5e-3)
    assert silverman_bandwidth([2.0, 2.0, 2.0]) == pytest.approx(2e-3)
    assert silverman_bandwidth([0.0]) == 1e-9


def test_log_kde_matches_hand_sum():
    sample = [0.0, 0.5, 1.5, 2.0, 4.0]
    h = silverman_bandwidth(sample)
    for x in (0.3, 1.0, 2.5):
        dens = sum(math.exp(-0.5 * ((x - s) / h) ** 2) for s in sample)
        want = math.log(dens / (len(sample) * h * math.sqrt(2 * math.pi)))
        assert log_gaussian_kde(sample, x) == pytest.approx(want, abs=1e-12)


def test_log_kde_stays_finite_far_away():
    sample = [0.0, 0.1, 0.2]
    far = log_gaussian_kde(sample, 100.0)
    farther = log_gaussian_kde(sample, 200.0)
    assert np.isfinite(far) and np.isfinite(farther)
    assert farther < far


@st.composite
def logsumexp_rows(draw):
    """C-ordered rows of magnitude 1e-300 to 1e300 with several tied maxima,
    -inf entries, and rows of all -inf, NaN or +inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    a = rng.standard_normal((n_rows, n_cols)) * 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        a = -np.abs(a)  # the KDE's exponents are never positive
    tied = rng.integers(0, n_cols, (n_rows, draw(st.integers(0, n_cols))))
    np.put_along_axis(a, tied, a.max(axis=1, keepdims=True), axis=1)
    a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = -np.inf
    for special in draw(st.lists(st.sampled_from([-np.inf, np.nan, np.inf]), max_size=2)):
        row = rng.integers(0, n_rows)
        if special == -np.inf:
            a[row] = special
        else:
            a[row, rng.integers(0, n_cols)] = special
    return a


@settings(max_examples=300, deadline=None)
@given(a=logsumexp_rows())
def test_logsumexp_rows_has_the_bits_of_scipy(a):
    want = logsumexp(a, axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp_rows(a.copy())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a, got, want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 5), n_cols=st.integers(2, 60),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_log_kde_rows_match_one_sample_calls(seed, n_rows, n_cols, scale):
    rng = np.random.default_rng(seed)
    d = np.abs(rng.standard_normal((n_rows, n_cols))) * scale
    d[:, rng.integers(0, n_cols, n_cols // 3)] = d[:, :1]  # duplicated distances
    x = np.median(d, axis=1)
    cut = int(rng.integers(1, n_cols))
    # a column slice, as the competition passes each branch's sample
    rows = log_gaussian_kde(d[:, :cut], x)
    assert rows.tobytes() == log_gaussian_kde(np.ascontiguousarray(d[:, :cut]), x).tobytes()
    ones = np.array([log_gaussian_kde(d[i, :cut], x[i]) for i in range(n_rows)])
    assert rows.tobytes() == ones.tobytes()


@st.composite
def distance_blocks(draw):
    """Open rows' distances as the competition holds them: the first n_left
    columns the left branch's, each branch drawn about its own centre with
    its own spread (zero gives the Silverman floor, 1e-40 a bandwidth below
    the screen's range), with duplicated distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 80))
    n_left = draw(st.integers(1, n - 1))
    d = np.empty((m, n))
    for cols in (slice(0, n_left), slice(n_left, n)):
        centre = draw(st.sampled_from([0.0, 0.5, 3.0]))
        spread = draw(st.sampled_from([0.0, 1e-40, 1e-9, 1e-3, 0.3, 2.0]))
        d[:, cols] = centre + spread * np.abs(rng.standard_normal(d[:, cols].shape))
    n_dup = draw(st.integers(0, n))
    d[:, rng.integers(0, n, n_dup)] = d[:, rng.integers(0, n, n_dup)]
    return d * draw(st.sampled_from([1e-6, 1.0, 1e6])), n_left


@settings(max_examples=400, deadline=None)
@given(block=distance_blocks())
def test_screened_log_ratio_lies_within_the_margin_of_the_exact_one(block):
    d, n_left = block
    m, n = d.shape
    # d is the head of a larger work buffer, as distance_rows leaves it
    work = np.full(2 * m * n + 3, 7.0)
    head = work[:m * n].reshape(m, n)
    head[...] = d
    x = median_rows(head, work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _screened_log_ratio(head, x, n_left, work)
    exact = log_gaussian_kde(d[:, :n_left], x) - log_gaussian_kde(d[:, n_left:], x)
    covered = ~np.isnan(est)
    assert np.all(np.abs(est[covered] - exact[covered]) <= _kde_margin(n)), (est, exact)
    assert head.tobytes() == d.tobytes() and np.all(work[2 * m * n:] == 7.0)
    # NaN only where the margin does not hold: a branch's kernel sum below
    # 2^-900, or a bandwidth outside [2^-100, 2^100]
    clear = np.ones(m, dtype=bool)
    for sample in (d[:, :n_left], d[:, n_left:]):
        h = silverman_bandwidth(sample)
        with np.errstate(over="ignore"):
            log_sum = logsumexp(-0.5 * ((x[:, None] - sample) / h[:, None]) ** 2, axis=1)
        clear &= (log_sum > -899.0 * math.log(2.0)) & (h >= 2.0 ** -100) & (h <= 2.0 ** 100)
    assert covered[clear].all()


@pytest.mark.parametrize("bandwidths", [38.5, 60.0])
def test_screened_log_ratio_leaves_an_underflowing_branch_to_the_exact_kdes(bandwidths):
    # the median lies that many left bandwidths beyond the left sample, so
    # the left kernel sum is subnormal (1.4e-322, a few digits) at 38.5 and
    # 0 at 60, while the exact log ratio stays finite
    h = float(silverman_bandwidth([0.0, 1.0]))
    work = np.empty(14)
    d = work[:7].reshape(1, 7)
    d[0] = [0.0, 1.0] + [1.0 + bandwidths * h] * 5
    x = median_rows(d, work)
    exact = log_gaussian_kde(d[:, :2], x) - log_gaussian_kde(d[:, 2:], x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _screened_log_ratio(d, x, 2, work)
    assert np.isnan(est).all() and np.isfinite(exact).all() and exact[0] < -700.0


def test_config_validation():
    with pytest.raises(ConfigError):
        CompetitionConfig(k_star=0)
    with pytest.raises(ConfigError):
        CompetitionConfig(pl_lower=0.0)
    with pytest.raises(ConfigError):
        CompetitionConfig(pl_lower=1.2, pl_upper=1.5)
    with pytest.raises(ConfigError):
        CompetitionConfig(pl_upper=0.9)
    with pytest.raises(ConfigError):
        CompetitionConfig(dominant_fraction=0.5)
    with pytest.raises(ConfigError):
        CompetitionConfig(outlier_quantile=1.0)
    for field, value in (("k_star", 20.0), ("k_star", True), ("pl_lower", "0.5"), ("dominant_fraction", None)):
        with pytest.raises(ConfigError, match="competition.%s" % field):
            CompetitionConfig(**{field: value})
    # the degenerate band is a legal configuration
    CompetitionConfig(pl_lower=1.0, pl_upper=1.0)
    CompetitionConfig(outlier_quantile=None)


# --- competitions --------------------------------------------------------


def test_a_tree_label_without_training_rows_is_a_data_error():
    ds = two_clouds()  # labels 'a' and 'b'
    tree = build_label_tree(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]), ["a", "b", "c"])
    with pytest.raises(DataError, match="label 'c' has zero training rows"):
        TreeClassifier(tree, ds, ["f0", "f1"])


def test_dominant_neighborhood_decides_without_kde():
    ds = two_clouds()
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"])
    # children of the two-label root are leaves 0='a', 1='b'
    left, right = clf.competition(clf.zstats.transform([[0.0, 0.0], [4.0, 4.0]]), 2)
    assert DECISIONS[left] == "left"
    assert DECISIONS[right] == "right"


def test_overlapping_clouds_stop_at_the_shared_node():
    ds = two_clouds(sd=0.5, spacing=0.0, n=80, seed=3)
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    stop, outlier, steps = clf.classify([[0.0, 0.0]])
    assert stop.tolist() == [tree.root] and outlier.tolist() == [False]
    assert tree.node_labels(tree.root) == ("a", "b")
    node, rows, decisions = steps[-1]
    assert (node, rows.tolist(), [DECISIONS[d] for d in decisions]) == (tree.root, [0], ["stop"])


def test_outlier_screen_empties_the_prediction():
    ds = two_clouds()
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"])
    stop, outlier, _ = clf.classify([[100.0, 100.0]])
    assert outlier.tolist() == [True]
    assert predicted_sets(tree, stop, outlier) == [()]
    no_screen = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    stop, outlier, _ = no_screen.classify([[100.0, 100.0]])
    assert outlier.tolist() == [False]
    assert predicted_sets(tree, stop, outlier) != [()]


def test_degenerate_band_forces_singletons():
    ds = two_clouds(sd=0.5, spacing=0.0, n=60, seed=5)
    tree = tree_from_training(ds, ["f0", "f1"])
    cfg = CompetitionConfig(pl_lower=1.0, pl_upper=1.0, outlier_quantile=None)
    clf = TreeClassifier(tree, ds, ["f0", "f1"], cfg)
    stop, outlier, _ = clf.classify_rows(ds.table)
    assert all(len(labels) == 1 for labels in predicted_sets(tree, stop, outlier))


def test_small_node_warns_once_per_classifier(caplog, monkeypatch):
    # every internal node holds fewer than k* rows; one-row blocks and two
    # classify calls run many competitions at each
    monkeypatch.setattr(importlib.import_module("ceda.predictive_map"), "BLOCK_BYTES", 1)
    ds = synth_generate("gauss-clouds", {"centers": [[0, 0], [4, 4], [8, 0]], "sd": 0.5, "n_per_label": 6}, seed=2)
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(k_star=50, outlier_quantile=None))
    with caplog.at_level(logging.WARNING, logger="ceda.predictive_map"):
        clf.classify_rows(ds.table)
        clf.classify_rows(ds.table)
    warnings = [r.getMessage() for r in caplog.records if "k* reduced" in r.getMessage()]
    assert warnings == ["only 18 training rows at node %d, k* reduced from 50" % tree.root]


def test_separable_clouds_classify_correctly():
    ds = two_clouds(n=30, seed=9)
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    stop, outlier, _ = clf.classify_rows(ds.table)
    truth = ds.label_values
    assert all(labels == (t,) for labels, t in zip(predicted_sets(tree, stop, outlier), truth))


def test_one_label_tree_runs_no_competition():
    ds = synth_generate("gauss-clouds", {"centers": [[0, 0]], "sd": 1.0, "n_per_label": 12}, seed=4)
    tree = tree_from_training(ds, ["f0", "f1"])
    assert tree.root == 0 and tree.is_leaf(tree.root)
    stop, outlier, steps = TreeClassifier(tree, ds, ["f0", "f1"]).classify_rows(ds.table)
    assert stop.tolist() == [0] * ds.n_rows
    assert outlier.tolist() == [False] * ds.n_rows
    assert steps == []


# --- naming and tabulation ----------------------------------------------


def test_set_name_rules():
    assert set_name(("b", "e"), ["a", "b", "c", "d", "e"]) == "be"
    assert set_name((), ["a", "b"]) == "none"
    assert set_name(("a", "b"), ["a", "b"]) == "all"
    assert set_name(("east", "west"), ["east", "west", "north"]) == "east+west"
    assert set_name(("c", "a"), ["a", "b", "c"]) == "ac"  # sorted
    # one multi-character label in the universe: {a, b} and {ab} stay apart
    assert set_name(("a", "b"), ["a", "b", "ab"]) == "a+b"
    assert set_name(("ab",), ["a", "b", "ab"]) == "ab"


@pytest.mark.parametrize("universe, keys, shared", [
    # {a, b} and {a+b}
    (["a", "b", "a+b"], [(("a", "b"),), (("a+b",),)], "a+b"),
    # {all} and the full set
    (["a", "b", "all"], [(("all",),), (("a", "all", "b"),)], "all"),
    # two-link keys: a then b-c, and a-b then c
    (["a", "b-c", "a-b", "c"], [(("a",), ("b-c",)), (("a-b",), ("c",))], "a-b-c"),
])
def test_tabulate_rejects_categories_that_print_alike(universe, keys, shared):
    true_values = [universe[0]] * len(keys)
    with pytest.raises(DataError, match=r"both print as '%s'" % re.escape(shared)):
        tabulate_predictions(keys, range(len(keys)), true_values, universe, universe)
    # either category alone prints without a clash
    for key in keys:
        table = tabulate_predictions([key], [0], true_values[:1], universe, universe)
        assert [c.name for c in table.categories] == [shared]


def one_link_table(predicted, true_values, true_labels):
    keys = [(tuple(labs),) for labs in predicted]
    return tabulate_predictions(keys, range(len(keys)), true_values, true_labels, true_labels)


def test_tabulate_hand_example():
    table = one_link_table([("a",), ("a", "b"), (), ("a",)], ["a", "b", "a", "b"], ["a", "b"])
    names = [c.display_name for c in table.categories]
    assert names == ["*a", "all", "none"]
    by_name = {c.display_name: c for c in table.categories}
    assert by_name["*a"].counts.tolist() == [1, 1]
    assert by_name["*a"].rows.tolist() == [0, 3]
    assert not by_name["*a"].certain
    assert by_name["all"].counts.tolist() == [0, 1]
    assert by_name["all"].certain
    assert by_name["none"].counts.tolist() == [1, 0]
    assert by_name["none"].labels == ()
    assert sum(c.counts for c in table.categories).tolist() == [2, 2]
    assert table.total() == 4
    assert table.singleton_fraction() == 0.5


def test_tabulate_proportions_and_csv():
    table = one_link_table([("a",), ("a",), ("b",)], ["a", "a", "b"], ["a", "b"])
    props = table.per_label_proportions()
    assert props["a"] == {"a": 1.0}
    assert props["b"] == {"b": 1.0}
    text = table.to_csv_text()
    assert text.splitlines()[0] == "category,a,b"
    assert table.singleton_fraction() == 1.0
    assert all(c.certain for c in table.categories)


def test_tabulate_composite_keys_sort_per_link():
    # two-link keys: ordered link by link, names joined with "-"
    keys = {0: (("a", "b"), ("b",)), 1: (("a",), ()), 2: (("a", "b"), ("a",)), 3: (("a",), ("a",))}
    table = tabulate_predictions(keys, [3, 2, 1, 0], ["a", "b", "a", "b"], ["a", "b"], ["a", "b", "c"])
    assert [c.name for c in table.categories] == ["a-a", "a-none", "ab-a", "ab-b"]
    assert [c.labels for c in table.categories] == [("a",), (), ("a",), ("b",)]
    assert [c.rows.tolist() for c in table.categories] == [[3], [1], [2], [0]]


def test_predictive_map_end_to_end_records():
    ds = two_clouds(n=25, seed=13)
    tree = tree_from_training(ds, ["f0", "f1"])
    table, (stop, outlier, steps) = predictive_map(ds, tree, ds, ["f0", "f1"],
                                                   cfg=CompetitionConfig(outlier_quantile=None))
    assert table.total() == ds.n_rows
    assert len(stop) == len(outlier) == ds.n_rows
    assert table.true_labels == ["a", "b"]
    sets = predicted_sets(tree, stop, outlier)
    for cat in table.categories:
        assert all(sets[row] == cat.labels for row in cat.rows)
