"""Branch competitions, KDE pieces and the predictive map tabulation."""

import math
import statistics

import numpy as np
import pytest

from ceda.dataset import synth_generate
from ceda.errors import ConfigError
from ceda.label_tree import tree_from_training
from ceda.predictive_map import (
    CompetitionConfig,
    TreeClassifier,
    log_gaussian_kde,
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
    # the degenerate band is a legal configuration
    CompetitionConfig(pl_lower=1.0, pl_upper=1.0)
    CompetitionConfig(outlier_quantile=None)


# --- competitions --------------------------------------------------------


def test_dominant_neighborhood_decides_without_kde():
    ds = two_clouds()
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"])
    # children of the two-label root are leaves 0='a', 1='b'
    assert clf.competition([0.0, 0.0], 2) == "left"
    assert clf.competition([4.0, 4.0], 2) == "right"


def test_overlapping_clouds_stop_at_the_shared_node():
    ds = two_clouds(sd=0.5, spacing=0.0, n=80, seed=3)
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    pred = clf.classify([0.0, 0.0])
    assert pred.labels == ("a", "b")
    assert pred.stop_node == tree.root
    assert pred.path[-1] == (tree.root, "stop")


def test_outlier_screen_empties_the_prediction():
    ds = two_clouds()
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"])
    pred = clf.classify([100.0, 100.0])
    assert pred.labels == ()
    no_screen = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    assert no_screen.classify([100.0, 100.0]).labels != ()


def test_degenerate_band_forces_singletons():
    ds = two_clouds(sd=0.5, spacing=0.0, n=60, seed=5)
    tree = tree_from_training(ds, ["f0", "f1"])
    cfg = CompetitionConfig(pl_lower=1.0, pl_upper=1.0, outlier_quantile=None)
    clf = TreeClassifier(tree, ds, ["f0", "f1"], cfg)
    preds = clf.classify_rows(ds.table)
    assert all(len(p.labels) == 1 for p in preds)


def test_separable_clouds_classify_correctly():
    ds = two_clouds(n=30, seed=9)
    tree = tree_from_training(ds, ["f0", "f1"])
    clf = TreeClassifier(tree, ds, ["f0", "f1"], CompetitionConfig(outlier_quantile=None))
    preds = clf.classify_rows(ds.table)
    truth = ds.label_values
    assert all(p.labels == (t,) for p, t in zip(preds, truth))


# --- naming and tabulation ----------------------------------------------


def test_set_name_rules():
    assert set_name(("b", "e"), ["a", "b", "c", "d", "e"]) == "be"
    assert set_name((), ["a", "b"]) == "none"
    assert set_name(("a", "b"), ["a", "b"]) == "all"
    assert set_name(("east", "west"), ["east", "west", "north"]) == "east+west"
    assert set_name(("c", "a"), ["a", "b", "c"]) == "ac"  # sorted


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
    assert table.certain_fraction() == 1.0


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
    table, preds = predictive_map(ds, tree, ds, ["f0", "f1"],
                                  cfg=CompetitionConfig(outlier_quantile=None))
    assert table.total() == ds.n_rows
    assert len(preds) == ds.n_rows
    assert table.true_labels == ["a", "b"]
    for cat in table.categories:
        assert all(preds[row].labels == cat.labels for row in cat.rows)
