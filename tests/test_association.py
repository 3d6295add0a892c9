"""Entropy association measures checked against independent hand formulas.

The oracles below use plain Python floats and math.log so they share no code
with the package implementation.  The batched entropies are also held bit
for bit to the one-row-at-a-time numpy computation they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceda.association import (
    category_codes,
    contingency_table,
    directed_values,
    mce_matrix,
    rank_features_by_label_association,
    row_entropies,
)
from ceda.dataset import Column, DataTable, LabeledDataset, synth_generate
from ceda.discretize import build_histogram, default_binnings
from ceda.errors import DataError


# --- oracles -------------------------------------------------------------


def entropy_oracle(counts):
    total = float(sum(counts))
    if total <= 0:
        return 0.0
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p)
    return acc


def dce_oracle(counts, row_to_col=True):
    """Weighted conditional entropy of the column variable over row slices,
    divided by the column variable's entropy."""
    rows = [list(r) for r in counts] if row_to_col else [list(r) for r in zip(*counts)]
    n = float(sum(sum(r) for r in rows))
    col_totals = [sum(col) for col in zip(*rows)]
    h_col = entropy_oracle(col_totals)
    acc = 0.0
    for r in rows:
        t = sum(r)
        if t > 0:
            acc += (t / n) * entropy_oracle(r)
    return acc / h_col


def loop_entropy(p):
    """One row at a time, as the entropies were computed before batching."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if total <= 0:
        return 0.0
    p = p / total
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def loop_directed(counts):
    """The per-row weighted loop of dce(row -> col) over loop_entropy."""
    n = counts.sum()
    acc = 0.0
    for row in counts:
        total = row.sum()
        if total == 0:
            continue
        acc += (total / n) * loop_entropy(row)
    return acc / loop_entropy(counts.sum(axis=0))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def pair_table(counts):
    """Two discrete columns r and c whose cross-tabulation is counts, with
    its empty rows and columns dropped."""
    rows, cols = np.indices(counts.shape).reshape(2, -1)
    return DataTable([Column("r", "discrete", np.repeat(rows, counts.ravel()).astype(float)),
                      Column("c", "discrete", np.repeat(cols, counts.ravel()).astype(float))])


def mce_of(counts):
    """The mce command's value for the table counts: mce_matrix on its two columns."""
    return mce_matrix(pair_table(counts)).values[0, 1]


def random_table(rng):
    shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
    counts = rng.integers(0, 30, size=shape)
    # keep both marginals non-degenerate
    counts[0, 0] += 1
    counts[-1, -1] += 1
    return counts


# --- unit values ---------------------------------------------------------


def test_shannon_entropy_frozen_values():
    assert row_entropies([[1, 1, 1, 1]])[0] == pytest.approx(math.log(4), abs=1e-15)
    assert row_entropies([[5, 0, 0]])[0] == 0.0
    assert row_entropies([[2, 2]])[0] == pytest.approx(math.log(2), abs=1e-15)
    assert row_entropies(np.zeros((1, 0)))[0] == 0.0
    # probabilities and counts agree
    assert row_entropies([[0.25, 0.75]])[0] == pytest.approx(row_entropies([[1, 3]])[0], abs=1e-15)


def test_independent_table_scores_one():
    counts = np.outer([2, 3], [1, 4])
    assert directed_values(counts[None])[0] == pytest.approx(1.0, abs=1e-12)
    assert mce_of(counts) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_table_scores_zero():
    counts = np.diag([4, 5, 6])
    assert directed_values(counts[None])[0] == 0.0
    assert mce_of(counts) == 0.0


def test_degenerate_target_raises(caplog):
    counts = np.array([[3, 0], [5, 0]])
    assert np.isnan(directed_values(counts[None])[0])
    # the other direction is fine
    assert 0.0 <= directed_values(counts.T[None])[0] <= 1.0
    # a feature with a single observed bin never reaches the label ranking:
    # mce_matrix skips it with one warning, and the ranking scores the rest
    # of the matrix's features, never the label column itself
    ds = LabeledDataset(DataTable([Column("label", "categorical", np.array(list("abab"), dtype=object)),
                                   Column("c", "continuous", np.zeros(4)),
                                   Column("g", "discrete", np.array([0.0, 0.0, 1.0, 1.0]))]), "label")
    binnings = {"c": build_histogram(np.arange(10.0), feature="c")}
    with caplog.at_level("WARNING", logger="ceda"):
        matrix = mce_matrix(ds.table, binnings, features=["label", "c", "g"])
    assert [r.getMessage() for r in caplog.records] == ["skipping degenerate feature 'c'"]
    assert rank_features_by_label_association(ds, matrix) == [("g", 1.0, 1.0)]


def test_directed_matches_oracle_on_random_tables():
    rng = np.random.default_rng(42)
    for _ in range(200):
        counts = random_table(rng)
        want_fwd = dce_oracle(counts.tolist(), row_to_col=True)
        want_bwd = dce_oracle(counts.tolist(), row_to_col=False)
        assert directed_values(counts[None])[0] == pytest.approx(want_fwd, abs=1e-12)
        assert directed_values(counts.T[None])[0] == pytest.approx(want_bwd, abs=1e-12)
        assert mce_of(counts) == pytest.approx(0.5 * (want_fwd + want_bwd), abs=1e-12)


def test_mce_bounds_hold():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = mce_of(random_table(rng))
        assert 0.0 <= v <= 1.0 + 1e-12


# rows with exactly m nonzero cells: empty rows, single cells, and the widths
# around numpy's 8-wide unrolled sum and its pairwise blocks
NONZERO_COUNTS = [0, 1, 2, 7, 8, 9, 16, 17, 33]


@st.composite
def entropy_rows(draw):
    width = draw(st.integers(1, 40))
    counts = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        m = min(width, draw(st.sampled_from(NONZERO_COUNTS)))
        cells = draw(st.lists(st.integers(0, width - 1), min_size=m, max_size=m, unique=True))
        if counts:
            values = draw(st.lists(st.integers(1, 10 ** 6), min_size=m, max_size=m))
        else:
            values = draw(st.lists(st.floats(1e-12, 1e3), min_size=m, max_size=m))
        row = np.zeros(width, dtype=int if counts else float)
        row[cells] = values
        rows.append(row)
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(C=entropy_rows())
def test_row_entropies_match_the_row_loop_bit_for_bit(C):
    want = [loop_entropy(r) for r in C]
    assert bits(row_entropies(C)) == bits(want)
    assert bits([row_entropies(r[None])[0] for r in C]) == bits(want)


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(2, 9), st.integers(2, 9)), seed=st.integers(0, 2 ** 32 - 1),
       sparsity=st.floats(0.0, 0.8))
def test_directed_matches_the_row_loop_bit_for_bit(shape, seed, sparsity):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=shape) * (rng.uniform(size=shape) >= sparsity)
    counts[0, 0] += 1
    counts[-1, -1] += 1
    assert bits(directed_values(counts[None])) == bits([loop_directed(counts)])
    assert bits(directed_values(counts.T[None])) == bits([loop_directed(counts.T)])


# --- contingency construction --------------------------------------------


def test_contingency_hand_tally():
    t = DataTable([
        Column("r", "categorical", np.array(["a", "a", "b", "b", "b"], dtype=object)),
        Column("c", "discrete", np.array([1.0, 2.0, 1.0, 1.0, 2.0])),
    ])
    ct = contingency_table(t, "r", "c")
    assert ct.row_cats == ["a", "b"]
    assert ct.col_cats == ["1", "2"]
    assert ct.counts.tolist() == [[1, 1], [2, 1]]
    assert (ct.row_var, ct.col_var) == ("r", "c")


def test_same_variable_twice_rejected():
    t = DataTable([Column("r", "categorical", np.array(["a", "b"], dtype=object))])
    with pytest.raises(DataError, match="same"):
        contingency_table(t, "r", "r")


def test_continuous_variable_needs_binning():
    t = DataTable([
        Column("x", "continuous", np.arange(10.0)),
        Column("r", "categorical", np.array(list("ababababab"), dtype=object)),
    ])
    with pytest.raises(DataError, match="needs a binning"):
        contingency_table(t, "x", "r")
    b = default_binnings(t, t.names)
    ct = contingency_table(t, "x", "r", b)
    assert ct.counts.sum() == 10


def test_category_codes_discrete_uses_values():
    t = DataTable([Column("g", "discrete", np.array([3.0, 1.0, 3.0, 2.0]))])
    codes, cats = category_codes(t, "g")
    assert cats == ["1", "2", "3"]
    assert codes.tolist() == [2, 0, 2, 1]


# --- matrix --------------------------------------------------------------


def categorical_test_table(n=400, seed=0):
    """Four categorical features; u and v association planted, w and q noise."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 3, n)
    v = np.where(rng.uniform(size=n) < 0.9, u, rng.integers(0, 3, n))
    w = rng.integers(0, 4, n)
    q = rng.integers(0, 2, n)
    return DataTable([
        Column("u", "categorical", np.array(["u%d" % i for i in u], dtype=object)),
        Column("v", "categorical", np.array(["v%d" % i for i in v], dtype=object)),
        Column("w", "categorical", np.array(["w%d" % i for i in w], dtype=object)),
        Column("q", "categorical", np.array(["q%d" % i for i in q], dtype=object)),
    ])


@st.composite
def coded_tables(draw):
    """Three to six discrete or categorical columns over a shared row count;
    category counts differ between columns, so tables of several shapes occur."""
    n = draw(st.integers(4, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, n)
    columns = []
    for j in range(draw(st.integers(3, 6))):
        n_cats = draw(st.integers(1, 6))
        codes = np.where(rng.uniform(size=n) < draw(st.floats(0.0, 1.0)), base % n_cats,
                         rng.integers(0, n_cats, n))
        if draw(st.booleans()):
            columns.append(Column("d%d" % j, "discrete", codes.astype(float)))
        else:
            columns.append(Column("c%d" % j, "categorical",
                                  np.array(["k%d" % c for c in codes], dtype=object)))
    return DataTable(columns)


def usable_feature_count(table):
    return sum(len(np.unique(category_codes(table, name)[0])) >= 2 for name in table.names)


@settings(max_examples=80, deadline=None)
@given(table=coded_tables())
def test_mce_matrix_matches_per_pair_contingency_tables(table):
    if usable_feature_count(table) < 2:
        with pytest.raises(DataError, match="at least 2"):
            mce_matrix(table)
        return
    m = mce_matrix(table)
    for i, a in enumerate(m.features):
        for j, b in enumerate(m.features):
            if i == j:
                continue
            counts = contingency_table(table, a, b).counts
            want = 0.5 * (loop_directed(counts) + loop_directed(counts.T))
            assert bits([m.values[i, j]]) == bits([want])


@settings(max_examples=80, deadline=None)
@given(table=coded_tables(), seed=st.integers(0, 2 ** 32 - 1))
def test_mce_matrix_properties(table, seed):
    if usable_feature_count(table) < 2:
        return
    m = mce_matrix(table)
    assert np.all((m.values >= 0.0) & (m.values <= 1.0))
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 0.0)
    # the rows of the data table in another order give the same matrix
    shuffled = table.subset(np.random.default_rng(seed).permutation(table.n_rows))
    again = mce_matrix(shuffled)
    assert again.features == m.features
    assert bits(again.values.ravel()) == bits(m.values.ravel())


def test_mce_matrix_rejects_a_feature_named_twice():
    with pytest.raises(DataError, match="same"):
        mce_matrix(categorical_test_table(), features=["u", "v", "u"])


def test_mce_matrix_symmetric_zero_diagonal():
    m = mce_matrix(categorical_test_table())
    assert np.allclose(m.values, m.values.T, atol=1e-15)
    assert np.all(np.diag(m.values) == 0.0)
    assert sorted(m.features) == ["q", "u", "v", "w"]


def test_mce_matrix_planted_pair_is_closest():
    m = mce_matrix(categorical_test_table())
    vals = {frozenset((a, b)): m.values[i, j]
            for i, a in enumerate(m.features) for j, b in enumerate(m.features) if i < j}
    planted = vals.pop(frozenset(("u", "v")))
    assert all(planted < v for v in vals.values())


def test_mce_matrix_invariant_under_feature_order():
    t = categorical_test_table()
    m1 = mce_matrix(t, features=["u", "v", "w", "q"])
    m2 = mce_matrix(t, features=["q", "w", "v", "u"])
    d1 = {frozenset((a, b)): m1.values[i, j]
          for i, a in enumerate(m1.features) for j, b in enumerate(m1.features) if i != j}
    d2 = {frozenset((a, b)): m2.values[i, j]
          for i, a in enumerate(m2.features) for j, b in enumerate(m2.features) if i != j}
    for key in d1:
        assert d1[key] == pytest.approx(d2[key], abs=1e-12)


def test_mce_matrix_skips_degenerate_feature(caplog):
    t = categorical_test_table()
    cols = t.columns + [Column("const", "categorical", np.array(["k"] * t.n_rows, dtype=object))]
    with caplog.at_level("WARNING"):
        m = mce_matrix(DataTable(cols))
    assert "const" not in m.features
    assert any("degenerate" in r.message for r in caplog.records)


def test_mce_matrix_groups_partition_features():
    m = mce_matrix(categorical_test_table())
    groups = m.groups(2)
    flat = sorted(f for g in groups for f in g)
    assert flat == sorted(m.features)
    # the planted pair clusters together
    joint = [g for g in groups if "u" in g]
    assert "v" in joint[0]


def test_mce_csv_layout():
    m = mce_matrix(categorical_test_table())
    lines = m.to_csv_text().strip().split("\n")
    assert lines[0] == "feature," + ",".join(m.features)
    assert len(lines) == 1 + len(m.features)


def test_too_few_usable_features():
    t = DataTable([
        Column("u", "categorical", np.array(["a", "b"], dtype=object)),
        Column("k", "categorical", np.array(["k", "k"], dtype=object)),
    ])
    with pytest.raises(DataError, match="at least 2"):
        mce_matrix(t)


# --- label ranking -------------------------------------------------------


def test_rank_features_prefers_informative_feature():
    ds = synth_generate(
        "gauss-clouds",
        {"centers": [[0, 0], [6, 0]], "sd": 0.5, "n_per_label": 150},
        seed=13,
    )
    # second coordinate carries no label signal
    binnings = default_binnings(ds.table, ds.table.names)
    ranked = rank_features_by_label_association(ds, mce_matrix(ds.table, binnings, ds.feature_names()))
    assert ranked[0][0] == "f0"
    assert ranked[0][1] < ranked[1][1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rank_features_match_per_feature_contingency_tables(seed):
    # discrete features of few shapes, so that stacks hold several tables;
    # two or more of them, as mce_matrix needs, and in half the draws the
    # matrix also holds the label column, which the ranking leaves out
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    label = rng.choice(list("abcd")[:int(rng.integers(2, 5))], n)
    label[:2] = ["a", "b"]
    cols = [Column("label", "categorical", label.astype(object))]
    for j in range(int(rng.integers(2, 8))):
        values = rng.integers(0, int(rng.integers(2, 4)), n).astype(float)
        values[:2] = [0.0, 1.0]
        cols.append(Column("f%d" % j, "discrete", values))
    ds = LabeledDataset(DataTable(cols), "label")
    names = ds.table.names if rng.random() < 0.5 else ds.feature_names()
    ranked = rank_features_by_label_association(ds, mce_matrix(ds.table, features=names))
    tables = {name: contingency_table(ds.table, "label", name) for name in ds.feature_names()}
    want = sorted(
        ((name, loop_directed(t.counts), loop_directed(t.counts.T)) for name, t in tables.items()),
        key=lambda row: (row[1], row[0]))
    assert [name for name, _, _ in ranked] == [name for name, _, _ in want]
    assert bits([v for _, v, _ in ranked]) == bits([v for _, v, _ in want])
    assert bits([v for _, _, v in ranked]) == bits([v for _, _, v in want])


def test_rank_features_warns_for_each_skipped_feature(caplog):
    n = 12
    label = np.array(list("ab") * (n // 2), dtype=object)
    ds = LabeledDataset(DataTable([
        Column("label", "categorical", label),
        Column("one", "categorical", np.array(["x"] * n, dtype=object)),
        Column("unbinned", "continuous", np.linspace(0.0, 1.0, n)),
        Column("flat", "continuous", np.zeros(n)),
        Column("good", "discrete", np.arange(n) % 3.0),
    ]), "label")
    binnings = {"flat": build_histogram(np.arange(10.0), feature="flat")}
    assert binnings["flat"].n_bins >= 2
    with caplog.at_level("WARNING", logger="ceda"):
        matrix = mce_matrix(ds.table, binnings)
    # the features are coded once, in mce_matrix, so each skipped feature
    # warns once, and the ranking adds no warning of its own
    assert [r.getMessage() for r in caplog.records] == [
        "skipping degenerate feature 'one'",
        "skipping feature 'unbinned': continuous variable 'unbinned' needs a binning",
        "skipping degenerate feature 'flat'",
    ]
    caplog.clear()
    with caplog.at_level("WARNING", logger="ceda"):
        ranked = rank_features_by_label_association(ds, matrix)
    assert caplog.records == []
    # 'good' and the label tell nothing about each other: each value of one
    # meets the values of the other equally often
    assert ranked == [("good", pytest.approx(1.0), pytest.approx(1.0))]
    one_label = LabeledDataset(DataTable([Column("label", "categorical", np.array(["a"] * n, dtype=object)),
                                          Column("good", "discrete", np.arange(n) % 3.0),
                                          Column("half", "discrete", np.arange(n) % 2.0)]), "label")
    with pytest.raises(DataError, match="no usable features to rank: the label 'label' has a single category"):
        rank_features_by_label_association(one_label, mce_matrix(one_label.table, features=["good", "half"]))
