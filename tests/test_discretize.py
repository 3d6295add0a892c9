"""Histogram construction, gap collapsing and categorization."""

import numpy as np
import pytest

from ceda.discretize import (
    build_histogram,
    categorize_many,
    default_bin_count,
    default_binnings,
)
from ceda.dataset import Column, DataTable
from ceda.errors import DataError


def test_default_bin_count_frozen_values():
    assert default_bin_count(1) == 3
    assert default_bin_count(4) == 3
    assert default_bin_count(8) == 4
    assert default_bin_count(9) == 5
    assert default_bin_count(1000) == 11


def test_equal_width_edges_without_gaps():
    values = np.linspace(0.0, 10.0, 200)
    b = build_histogram(values, target_bins=5, feature="u")
    assert np.allclose(b.edges, np.linspace(0, 10, 6))
    assert not b.gap_flags.any()
    assert b.counts.sum() == 200


def test_empty_run_collapses_to_flagged_midpoint():
    values = np.concatenate([np.linspace(0.0, 0.9, 20), np.linspace(9.05, 10.0, 20)])
    b = build_histogram(values, target_bins=10, feature="u")
    # raw bins 1..8 are empty; the run collapses to one boundary at
    # 0.5 * (raw_edge[1] + raw_edge[9]) = 5.0
    assert b.n_bins == 2
    assert b.edges.tolist() == [0.0, 5.0, 10.0]
    assert b.gap_flags.tolist() == [False, True, False]
    assert b.counts.tolist() == [20, 20]
    assert b.gap_flags.any()


def test_two_separate_gaps():
    values = np.concatenate([
        np.linspace(0.0, 0.9, 10),
        np.linspace(4.0, 4.9, 10),
        np.linspace(9.1, 10.0, 10),
    ])
    b = build_histogram(values, target_bins=10, feature="u")
    assert b.n_bins == 3
    assert b.gap_flags.tolist() == [False, True, True, False]


def test_every_training_value_lands_in_a_bin():
    rng = np.random.default_rng(7)
    values = rng.normal(size=500)
    b = build_histogram(values, feature="x")
    ids, oor = categorize_many(b, values)
    assert not oor.any()
    assert ids.min() == 0 and ids.max() == b.n_bins - 1
    assert np.bincount(ids, minlength=b.n_bins).tolist() == b.counts.tolist()


def test_max_falls_in_last_closed_bin():
    values = np.arange(11.0)
    b = build_histogram(values, target_bins=5, feature="u")
    ids, flags = categorize_many(b, [10.0])
    assert ids.tolist() == [b.n_bins - 1]
    assert flags.tolist() == [False]


def test_out_of_range_clamps_with_flag():
    b = build_histogram(np.arange(11.0), target_bins=5, feature="u")
    (low, high, inside), flags = categorize_many(b, [-3.0, 99.0, 5.5])
    assert (low, high) == (0, b.n_bins - 1)
    assert flags.tolist() == [True, True, False]
    assert 0 <= inside < b.n_bins


def test_constant_column_rejected():
    with pytest.raises(DataError, match="constant"):
        build_histogram(np.full(10, 2.0), feature="c")


def test_non_finite_rejected():
    with pytest.raises(DataError, match="non-finite"):
        build_histogram(np.array([1.0, np.inf]), feature="c")
    b = build_histogram(np.arange(8.0), feature="c")
    with pytest.raises(DataError, match="non-finite"):
        categorize_many(b, np.array([np.nan]))


def test_default_bin_count_used_when_target_absent():
    values = np.random.default_rng(0).uniform(size=100)
    b = build_histogram(values, feature="u")
    # 100 points: ceil(log2 100) + 1 = 8 raw bins; uniform draws occupy all
    assert b.n_bins == 8


def test_bins_deterministic():
    values = np.random.default_rng(1).normal(size=300)
    a = build_histogram(values, feature="x")
    b = build_histogram(values, feature="x")
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.counts, b.counts)


def test_report_is_json_friendly():
    b = build_histogram(np.arange(20.0), target_bins=4, feature="x")
    rep = b.to_report()
    assert rep["feature"] == "x"
    assert len(rep["edges"]) == len(rep["gap_flags"])
    assert rep["train_stats"]["min"] == 0.0
    assert rep["train_stats"]["max"] == 19.0


def test_default_binnings_covers_continuous_only():
    t = DataTable([
        Column("x", "continuous", np.arange(10.0)),
        Column("g", "discrete", np.array([1.0, 2.0] * 5)),
        Column("s", "categorical", np.array(list("ababababab"), dtype=object)),
    ])
    out = default_binnings(t, t.names)
    assert sorted(out) == ["x"]
    out2 = default_binnings(t, ["g"])
    assert out2 == {}


def test_default_binnings_follow_the_feature_order_and_overrides():
    t = DataTable([
        Column("x", "continuous", np.arange(40.0)),
        Column("y", "continuous", np.arange(40.0) ** 2),
    ])
    out = default_binnings(t, ["y", "x"], target_bins=4, per_feature={"x": 2})
    assert list(out) == ["y", "x"]
    assert (out["y"].edges == build_histogram(t.values("y"), 4, "y").edges).all()
    assert (out["x"].edges == build_histogram(t.values("x"), 2, "x").edges).all()
    assert out["x"].n_bins == 2
