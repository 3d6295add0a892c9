"""Chained refinement, conservation, and dissection of an external classifier."""

import numpy as np
import pytest

from ceda.chain import (
    CASES,
    ChainLink,
    ChainResult,
    DissectionReport,
    FeatureChain,
    chain_categories,
    dissect_external,
    knn_baseline_predict,
    load_external_predictions,
)
from ceda.dataset import Column, DataTable, LabeledDataset, SplitSpec, split_train_test, synth_generate
from ceda.errors import ConfigError, DataError
from ceda.predictive_map import CompetitionConfig, tabulate_predictions

NO_SCREEN = CompetitionConfig(outlier_quantile=None)

# front features split a from {b, c}; back features split b from c
ORTHO_CENTERS = [[0, 0, 9, 0], [5, 5, 0, 0], [5, 5, 9, 9]]


def ortho_sets(n=60, seed=0):
    ds = synth_generate(
        "gauss-clouds", {"centers": ORTHO_CENTERS, "sd": 0.05, "n_per_label": n}, seed=seed
    )
    return split_train_test(ds, SplitSpec(0.7, seed=seed))


def ortho_chain():
    return FeatureChain([
        ChainLink("front", ("f0", "f1"), NO_SCREEN),
        ChainLink("back", ("f2", "f3"), NO_SCREEN),
    ])


def test_chain_validation():
    with pytest.raises(ConfigError, match="at least one link"):
        FeatureChain([])
    with pytest.raises(ConfigError, match="duplicate"):
        FeatureChain([ChainLink("x", ("f0",)), ChainLink("x", ("f1",))])


def test_refinement_splits_the_mixed_category():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=3)
    assert len(result.tables) == 2
    depth1, depth2 = result.tables
    # the front view cannot separate b from c, so depth 1 has an uncertain category
    assert depth1.certain_fraction() < 1.0
    # the back view finishes the job
    assert depth2.certain_fraction() == 1.0
    # every composite name joins link sets with "-", one key entry per link
    assert all("-" in c.name for c in depth2.categories)
    assert all(len(c.key) == 2 for c in depth2.categories)
    assert all(len(c.key) == 1 for c in depth1.categories)


def test_conservation_is_exact():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=5)
    assert result.verify_conservation()
    depth1, depth2 = result.tables
    refined_total = sum(c.total for c in depth1.categories if not c.certain)
    assert refined_total == depth2.total()
    # depth-1 totals account for the whole test set
    assert depth1.total() == test.n_rows


def test_conservation_detects_lost_and_stray_rows():
    true, labels = ["a", "b", "c"], ["a", "b", "c"]
    depth1 = tabulate_predictions({0: (("a", "b"),), 1: (("a", "b"),), 2: (("c",),)},
                                  [0, 1, 2], true, labels, labels)
    keys = {0: (("a", "b"), ("a",)), 1: (("a", "b"), ("b",)), 2: (("c",), ("c",))}
    chain = ortho_chain()

    def conserved(rows):
        depth2 = tabulate_predictions(keys, rows, true, labels, labels)
        return ChainResult(chain=chain, tables=[depth1, depth2]).verify_conservation()

    assert conserved([0, 1])
    assert not conserved([0])        # a refined row went missing
    assert not conserved([0, 1, 2])  # a certain row was refined


def test_certain_rows_are_never_refined():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=7)
    depth2_rows = {int(r) for c in result.tables[1].categories for r in c.rows}
    for cat in result.tables[0].categories:
        if cat.certain:
            assert not depth2_rows & {int(r) for r in cat.rows}
            for row in cat.rows:
                assert result.final_category_per_row[row] is cat


def test_chain_is_reproducible():
    train, test = ortho_sets()
    a = chain_categories(test, train, ortho_chain(), seed=11)
    b = chain_categories(test, train, ortho_chain(), seed=11)
    assert [t.to_csv_text() for t in a.tables] == [t.to_csv_text() for t in b.tables]


def test_true_values_recorded_per_row():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=1)
    assert result.true_value_per_row == [str(v) for v in test.label_values]


# --- dissection ----------------------------------------------------------


def test_cases_tuple_frozen():
    assert CASES == (
        "certainty-coherent",
        "certainty-incoherent",
        "uncertainty-coherent",
        "uncertainty-incoherent",
    )


def test_perfect_external_is_fully_coherent():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=2)
    external = {i: str(v) for i, v in enumerate(test.label_values)}
    report = dissect_external(external, result)
    assert sum(report.totals.values()) == test.n_rows
    assert report.totals["certainty-incoherent"] == 0
    assert report.totals["uncertainty-incoherent"] == 0
    assert len(report.records) == test.n_rows
    assert {r["case"] for r in report.records} <= set(CASES)


def test_wrong_external_labels_are_incoherent():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=2)
    flipped = {}
    universe = list(train.labels)
    for i, v in enumerate(test.label_values):
        others = [u for u in universe if u != v]
        flipped[i] = others[0]
    report = dissect_external(flipped, result)
    # a point predicted 'a' while its category resolved to {b} is incoherent;
    # some flips can still land inside a mixed set, so compare to the perfect run
    coherent = report.totals["certainty-coherent"] + report.totals["uncertainty-coherent"]
    assert coherent < test.n_rows


def test_dissect_requires_full_coverage():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=2)
    external = {i: "a" for i in range(test.n_rows - 1)}
    with pytest.raises(DataError, match="missing rows"):
        dissect_external(external, result)
    external = {i: "a" for i in range(test.n_rows)}
    external[test.n_rows + 5] = "a"
    with pytest.raises(DataError, match="unknown rows"):
        dissect_external(external, result)


def test_dissect_rejects_labels_outside_the_universe():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=2)
    external = {i: str(v) for i, v in enumerate(test.label_values)}
    for row in (1, 4, 9):
        external[row] = "zz"
    external[6] = "A"
    with pytest.raises(DataError, match=r"'A' \(rows 6\); 'zz' \(rows 1, 4, 9\)"):
        dissect_external(external, result)


def test_rate_in_uncertain_hand_records():
    records = [
        {"true": "a", "external": "a", "case": "certainty-coherent"},
        {"true": "a", "external": "b", "case": "uncertainty-incoherent"},
        {"true": "b", "external": "b", "case": "uncertainty-coherent"},
        {"true": "a", "external": "b", "case": "certainty-incoherent"},
        {"true": "c", "external": "b", "case": "uncertainty-incoherent"},
    ]
    report = DissectionReport(records=records, totals={})
    assert report.rate_in_uncertain(correct=True) == pytest.approx(0.5)
    assert report.rate_in_uncertain(correct=False) == pytest.approx(2.0 / 3.0)


def test_rate_in_uncertain_empty_selection_is_nan():
    records = [{"true": "a", "external": "a", "case": "certainty-coherent"}]
    report = DissectionReport(records=records, totals={})
    assert np.isnan(report.rate_in_uncertain(correct=False))


def test_dissection_csv_layout():
    train, test = ortho_sets()
    result = chain_categories(test, train, ortho_chain(), seed=2)
    external = {i: str(v) for i, v in enumerate(test.label_values)}
    lines = dissect_external(external, result).to_csv_text().strip().split("\n")
    assert lines[0] == "row,true,external,category,depth,case"
    assert len(lines) == 1 + test.n_rows


# --- external prediction files ------------------------------------------


def test_load_external_predictions_roundtrip(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("row_id,predicted_label\n0,a\n1,b\n2, c \n")
    assert load_external_predictions(path) == {0: "a", 1: "b", 2: "c"}


def test_load_external_predictions_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_external_predictions(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("row_id,predicted_label\n")
    with pytest.raises(DataError, match="no rows"):
        load_external_predictions(header_only)
    bad_id = tmp_path / "b.csv"
    bad_id.write_text("row_id,predicted_label\nxx,a\n")
    with pytest.raises(DataError, match="bad row id"):
        load_external_predictions(bad_id)
    short = tmp_path / "s.csv"
    short.write_text("row_id,predicted_label\n0\n")
    with pytest.raises(DataError, match="malformed"):
        load_external_predictions(short)
    with pytest.raises(DataError, match="cannot read"):
        load_external_predictions(tmp_path / "absent.csv")


# --- knn baseline --------------------------------------------------------


def labeled_points(xs, labels):
    return LabeledDataset(DataTable([
        Column("x", "continuous", np.asarray(xs, dtype=float)),
        Column("label", "categorical", np.array(labels, dtype=object)),
    ]), "label")


def test_knn_nearest_neighbor_vote():
    train = labeled_points([-1.0, -0.9, 1.0, 1.1], ["a", "a", "b", "b"])
    test = labeled_points([-0.95, 1.05], ["a", "a"])
    assert knn_baseline_predict(train, test, ["x"], k=2) == ["a", "b"]


def test_knn_tie_breaks_alphabetically():
    train = labeled_points([-1.0, 1.0], ["b", "a"])
    test = labeled_points([0.0], ["a"])
    assert knn_baseline_predict(train, test, ["x"], k=2) == ["a"]


def test_knn_k_clamped_to_train_size():
    train = labeled_points([-1.0, 1.0], ["a", "b"])
    test = labeled_points([-0.5], ["a"])
    assert knn_baseline_predict(train, test, ["x"], k=50) == ["a"]


def test_knn_rejects_bad_k():
    train = labeled_points([-1.0, 1.0], ["a", "b"])
    with pytest.raises(ConfigError):
        knn_baseline_predict(train, train, ["x"], k=0)
