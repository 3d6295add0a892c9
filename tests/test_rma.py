"""Response-manifold analytics: major scoring, the locality lattice,
prediction with minor sieving, error metrics, per-label least squares."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from ceda.dataset import Column, DataTable, LabeledDataset, ZStats, feature_matrix, synth_generate
from ceda.discretize import build_histogram, default_binnings
from ceda.errors import ConfigError, DataError
from ceda.rma import (
    FLAGS,
    MAJOR_SCORE_THRESHOLD,
    LocalityLattice,
    ResponseSpec,
    RmaPredictions,
    _collinear_columns,
    build_locality_lattice,
    error_metrics,
    joint_response_codes,
    minor_feature_entropy,
    ols_fit,
    ols_report_text,
    rma_predict_rows,
    score_major_candidate,
    t_two_sided_pvalue,
)


def ols_oracle(X, y):
    """Normal-equation least squares, written independently of the module
    (solve/inv instead of lstsq)."""
    n, pp = X.shape
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    df = n - pp
    s2 = float(resid @ resid) / df
    se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
    tvals = beta / se
    pvals = 2.0 * scipy_stats.t.sf(np.abs(tvals), df)
    return beta, se, pvals, math.sqrt(s2), df


def num_table(**cols):
    out = []
    for name, (kind, values) in cols.items():
        arr = np.array(values, dtype=object if kind == "categorical" else float)
        out.append(Column(name, kind, arr))
    return DataTable(out)


def one_label(table):
    """The table as a LabeledDataset whose rows all carry label "a"."""
    label = Column("label", "categorical", np.full(table.n_rows, "a", dtype=object))
    return LabeledDataset(DataTable(table.columns + [label]), "label")


# --- joint response cells and major scoring ------------------------------


def test_joint_response_codes_hand_example():
    table = num_table(
        r1=("discrete", [1, 1, 2, 2]),
        r2=("discrete", [1, 2, 1, 1]),
    )
    spec = ResponseSpec(("r1", "r2"), ())
    codes, names = joint_response_codes(table, spec, None)
    assert list(codes) == [0, 1, 2, 2]
    assert names == ["r1=1/r2=1", "r1=1/r2=2", "r1=2/r2=1"]


def test_grids_beyond_an_index_are_a_data_error():
    # 240 ** 8 cells overflow a 64-bit index
    names = ["r%d" % j for j in range(8)]
    table = num_table(x=("discrete", np.arange(240)),
                      **{n: ("categorical", ["v%d" % i for i in range(240)]) for n in names},
                      **{"d" + n: ("discrete", np.arange(240)) for n in names})
    grid = "the grid of %s has more cells than an index can count"
    with pytest.raises(DataError, match=grid % " x ".join(names)):
        joint_response_codes(table, ResponseSpec(tuple(names), ("x",)), None)
    with pytest.raises(DataError, match=grid % " x ".join(names)):
        score_major_candidate(table, ResponseSpec(tuple(names), ("x",)), "x", None)
    majors = ["d" + n for n in names]
    with pytest.raises(DataError, match=grid % " x ".join(majors)):
        build_locality_lattice(table, ResponseSpec(("x",), tuple(majors)), majors, {})


def score_fixture():
    table = num_table(
        x=("discrete", [1, 1, 1, 1, 2, 2, 2, 2]),
        w=("discrete", [1, 2, 1, 2, 1, 2, 1, 2]),
        r1=("discrete", [1, 1, 1, 1, 2, 2, 2, 2]),
    )
    return table, ResponseSpec(("r1",), ("x", "w"))


def test_score_perfect_and_independent_candidates():
    table, spec = score_fixture()
    sx = score_major_candidate(table, spec, "x", None)
    sw = score_major_candidate(table, spec, "w", None)
    # x determines r1 exactly; w is independent of it
    assert sx.score == pytest.approx(1.0, abs=1e-12)
    assert sw.score == pytest.approx(0.0, abs=1e-12)
    assert sx.is_major and not sw.is_major
    assert sx.threshold == MAJOR_SCORE_THRESHOLD


def test_score_per_bin_dispersion():
    table, spec = score_fixture()
    sx = score_major_candidate(table, spec, "x", None)
    sw = score_major_candidate(table, spec, "w", None)
    assert sx.per_bin_dispersion == {"1": {"r1": 0.0}, "2": {"r1": 0.0}}
    assert sw.per_bin_dispersion["1"]["r1"] == pytest.approx(0.5)


def test_score_dispersion_skips_empty_bins():
    table = num_table(x=("continuous", [0.1, 0.2, 2.8, 2.9]), r1=("discrete", [1, 1, 2, 3]))
    binning = build_histogram(np.array([0.0, 1.0, 1.5, 2.0, 3.0]), target_bins=3, feature="x")
    score = score_major_candidate(table, ResponseSpec(("r1",), ("x",)), "x", {"x": binning})
    assert score.per_bin_dispersion == {"bin0": {"r1": 0.0}, "bin2": {"r1": 0.5}}


@pytest.mark.parametrize("k", [-540, -300, 300, 500])
def test_score_dispersion_scales_exactly_by_a_power_of_two(k):
    # at 2^-540 the squared deviations underflowed and every sd read 0.0
    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, 200)
    r1, r2 = rng.normal(3.0, 1.0, 200), rng.normal(-2.0, 0.5, 200)

    def dispersion(k):
        table = num_table(x=("discrete", x), r1=("continuous", np.ldexp(r1, k)),
                          r2=("continuous", np.ldexp(r2, k)))
        spec = ResponseSpec(("r1", "r2"), ("x",))
        return score_major_candidate(table, spec, "x", default_binnings(table, ["r1", "r2"])).per_bin_dispersion

    base = dispersion(0)
    assert dispersion(k) == {b: {r: math.ldexp(sd, k) for r, sd in sds.items()} for b, sds in base.items()}
    assert all(sd > 0 for sds in base.values() for sd in sds.values())


def test_score_rejects_response_candidate():
    table, spec = score_fixture()
    with pytest.raises(ConfigError, match="is a response"):
        score_major_candidate(table, spec, "r1", None)


def test_score_degenerate_joint_cells():
    table = num_table(
        x=("discrete", [1, 2, 1, 2]),
        r1=("discrete", [5, 5, 5, 5]),
    )
    with pytest.raises(DataError, match="degenerate"):
        score_major_candidate(table, ResponseSpec(("r1",), ("x",)), "x", None)


def test_spin_direction_outranks_noise():
    ds = synth_generate(
        "magnus-manifold",
        {"labels": ["a"], "n_per_label": 600, "noise_sd": 0.05,
         "spin_rate_range": (0.95, 1.05)},
        seed=9,
    )
    binnings = default_binnings(ds.table, ds.table.names)
    spec = ResponseSpec(("pfx_x", "pfx_z"), ("spin_dir", "spin_rate", "noise"))
    s_dir = score_major_candidate(ds.table, spec, "spin_dir", binnings)
    s_noise = score_major_candidate(ds.table, spec, "noise", binnings)
    assert s_dir.score > s_noise.score
    assert s_dir.is_major
    assert not s_noise.is_major


def test_response_spec_validation():
    with pytest.raises(ConfigError, match="at least one response"):
        ResponseSpec((), ("x",))
    with pytest.raises(ConfigError, match="overlap"):
        ResponseSpec(("y",), ("y", "x"))


# --- locality lattice ----------------------------------------------------


def uniform_fixture(seed=5, n=900):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 3, n)
    v = rng.uniform(0, 3, n)
    y = u + v
    table = num_table(u=("continuous", u), v=("continuous", v), y=("continuous", y))
    spec = ResponseSpec(("y",), ("u", "v"))
    binnings = {
        "u": build_histogram(u, target_bins=3, feature="u"),
        "v": build_histogram(v, target_bins=3, feature="v"),
    }
    return table, spec, binnings


def test_repeated_responses_and_majors_are_data_errors():
    # a name given twice would be two code columns under one key of the grid
    with pytest.raises(DataError, match="responses repeat a name"):
        ResponseSpec(("y", "y"), ("u",))
    table, spec, binnings = uniform_fixture(n=90)
    with pytest.raises(DataError, match="majors repeat a name"):
        build_locality_lattice(table, spec, ["u", "v", "u"], binnings)


def test_lattice_cell_counts_near_uniform():
    table, spec, binnings = uniform_fixture()
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings)
    assert len(lat.cells) == 9
    assert lat.empty_cells == []
    # multinomial n=900, p=1/9: 3.5 sigma is about 33
    for rows in lat.cells.values():
        assert abs(len(rows) - 100) < 33
    all_rows = np.concatenate(list(lat.cells.values()))
    assert len(all_rows) == table.n_rows
    assert len(np.unique(all_rows)) == table.n_rows


def test_lattice_membership_matches_direct_categorization():
    from ceda.discretize import categorize_many

    table, spec, binnings = uniform_fixture()
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings)
    cu, _ = categorize_many(binnings["u"], np.asarray(table.values("u"), dtype=float))
    cv, _ = categorize_many(binnings["v"], np.asarray(table.values("v"), dtype=float))
    expected = {}
    for i, cell in enumerate(zip(cu.tolist(), cv.tolist())):
        expected.setdefault(cell, []).append(i)
    assert set(lat.cells) == set(expected)
    for cell, rows in expected.items():
        assert lat.cells[cell].tolist() == sorted(rows)


def test_lattice_cell_names():
    table, spec, binnings = uniform_fixture()
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings)
    assert lat.cell_name((0, 0)) == "A1"
    assert lat.cell_name((2, 1)) == "C2"


def test_three_major_cell_names_use_codes():
    rng = np.random.default_rng(3)
    u, v, w = (rng.uniform(0, 3, 200) for _ in range(3))
    table = num_table(u=("continuous", u), v=("continuous", v),
                      w=("continuous", w), y=("continuous", u + v + w))
    spec = ResponseSpec(("y",), ("u", "v", "w"))
    binnings = {n: build_histogram(np.asarray(table.values(n), dtype=float),
                                   target_bins=3, feature=n) for n in ("u", "v", "w")}
    lat = build_locality_lattice(table, spec, ["u", "v", "w"], binnings)
    assert lat.cell_name((0, 1, 2)) == "0x1x2"


def test_locate_clamps_and_flags():
    table, spec, binnings = uniform_fixture()
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings)
    u0 = float(np.asarray(table.values("u"))[0])
    v0 = float(np.asarray(table.values("v"))[0])
    codes, oor = lat.locate_rows([[-1.0, 1.5], [u0, v0]])
    assert codes[0, 0] == 0 and oor.tolist() == [True, False]
    assert 0 in lat.cells.get(tuple(codes[1].tolist()), [])


def test_locate_discrete_major_snaps_to_nearest():
    table = num_table(du=("discrete", [1, 1, 2, 2, 4, 4]),
                      y=("continuous", [0, 1, 2, 3, 4, 5]))
    lat = build_locality_lattice(table, ResponseSpec(("y",), ("du",)), ["du"], {})
    assert set(lat.cells) == {(0,), (1,), (2,)}
    codes, oor = lat.locate_rows([[2.0], [2.9], [3.1], [0.0], [5.0]])
    assert codes.ravel().tolist() == [1, 1, 2, 0, 2]
    assert oor.tolist() == [False, True, True, True, True]


def test_adjacent_cells_hand_grid():
    cells = {
        (0, 0): np.array([0]),
        (0, 1): np.array([1]),
        (1, 1): np.array([2]),
        (2, 2): np.array([3]),
    }
    lat = LocalityLattice(
        majors=["u", "v"], cats_per_major=[["a", "b", "c"], ["a", "b", "c"]],
        binnings={}, discrete_values={}, cells=cells, cell_regions={},
        responses=["y"], zstats=ZStats.fit(np.zeros((2, 2)) + [[0, 0], [1, 1]]),
        n_rows=4,
    )
    assert set(lat.adjacent_cells((1, 1))) == {(0, 0), (0, 1), (2, 2)}
    assert set(lat.adjacent_cells((0, 0))) == {(0, 1), (1, 1)}
    assert lat.adjacent_cells((2, 0)) == [(1, 1)]


def test_bin_subset_restricts_rows():
    from ceda.discretize import categorize_many

    table, spec, binnings = uniform_fixture()
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings,
                                 bin_subset={"u": [0, 2]})
    assert all(cell[0] in (0, 2) for cell in lat.cells)
    cu, _ = categorize_many(binnings["u"], np.asarray(table.values("u"), dtype=float))
    kept = int(np.sum((cu == 0) | (cu == 2)))
    assert sum(len(r) for r in lat.cells.values()) == kept
    assert lat.empty_cells == []


def test_bin_subset_rejects_unknown_keys_and_bin_ids():
    table, spec, binnings = uniform_fixture()
    n_bins = binnings["u"].n_bins
    # a covariate that is not a major, and a name that is neither
    for key in ("v", "w"):
        with pytest.raises(ConfigError, match="bin_subset key '%s' is not a major" % key):
            build_locality_lattice(table, spec, ["u"], binnings, bin_subset={"u": [0], key: [0]})
    for bad in (n_bins, 99, -1, "0"):
        with pytest.raises(ConfigError, match=r"bin_subset\['u'\] holds bin id %s" % repr(bad)):
            build_locality_lattice(table, spec, ["u", "v"], binnings, bin_subset={"u": [0, 1, bad], "v": [0]})
    lat = build_locality_lattice(table, spec, ["u", "v"], binnings, bin_subset={"u": [n_bins - 1], "v": [0]})
    assert list(lat.cells) == [(n_bins - 1, 0)] and lat.empty_cells == []


def test_lattice_build_validation():
    table, spec, binnings = uniform_fixture()
    with pytest.raises(DataError, match="at least one major"):
        build_locality_lattice(table, spec, [], binnings)
    with pytest.raises(DataError, match="not a declared covariate"):
        build_locality_lattice(table, spec, ["q"], binnings)
    with pytest.raises(DataError, match="no occupied rectangles"):
        build_locality_lattice(table, spec, ["u", "v"], binnings, bin_subset={"u": []})
    cat = num_table(g=("categorical", ["p", "q", "p"]), y=("continuous", [1, 2, 3]))
    with pytest.raises(DataError, match="must be numeric"):
        build_locality_lattice(cat, ResponseSpec(("y",), ("g",)), ["g"], {})


def test_all_singleton_cells_warns(caplog):
    table = num_table(u=("continuous", [0.0, 10.0, 20.0]),
                      y=("continuous", [1.0, 2.0, 3.0]))
    binnings = {"u": build_histogram(np.array([0.0, 10.0, 20.0]), target_bins=3, feature="u")}
    with caplog.at_level("WARNING", logger="ceda.rma"):
        build_locality_lattice(table, ResponseSpec(("y",), ("u",)), ["u"], binnings)
    assert any("single row" in r.message for r in caplog.records)


# --- minor-feature entropy -----------------------------------------------


def minor_fixture():
    u = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 5.0])
    table = num_table(
        u=("continuous", u),
        g=("categorical", ["p", "p", "p", "p", "q", "p", "p"]),
        h=("categorical", ["p", "q", "p", "q", "r", "p", "p"]),
        y=("continuous", [0, 1, 2, 3, 4, 5, 6]),
    )
    binnings = {"u": build_histogram(u, target_bins=3, feature="u")}
    spec = ResponseSpec(("y",), ("u", "g", "h"))
    lat = build_locality_lattice(table, spec, ["u"], binnings)
    return table, lat


def test_minor_entropy_values():
    table, lat = minor_fixture()
    report = minor_feature_entropy(lat, table, ["g", "h"])
    assert report.cells == ["0", "1", "2"]
    assert report.candidates == ["g", "h"]
    # cell 0: g all 'p' -> 0; h is p,q,p over 3 global categories
    assert report.entropies[0, 0] == pytest.approx(0.0, abs=1e-12)
    h_hand = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)) / math.log(3)
    assert report.entropies[0, 1] == pytest.approx(h_hand, abs=1e-12)
    # cell 2: h is q,r,p -> uniform over the 3 categories
    assert report.entropies[2, 1] == pytest.approx(1.0, abs=1e-12)
    # singleton cell 1 is skipped
    assert np.isnan(report.entropies[1, 0]) and np.isnan(report.entropies[1, 1])


def test_minor_entropy_mixed_cell_of_two():
    table, lat = minor_fixture()
    report = minor_feature_entropy(lat, table, ["g"])
    # cell 2: g is p,q,p -> H(2/3,1/3)/log(2 global categories)
    hand = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)) / math.log(2)
    assert report.entropies[2, 0] == pytest.approx(hand, abs=1e-12)


def test_minor_entropy_validation():
    table, lat = minor_fixture()
    with pytest.raises(DataError, match="no minor-feature candidates"):
        minor_feature_entropy(lat, table, [])
    const = num_table(
        u=("continuous", [0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 5.0]),
        g=("categorical", ["p"] * 7),
        y=("continuous", [0, 1, 2, 3, 4, 5, 6]),
    )
    with pytest.raises(DataError, match="single category"):
        minor_feature_entropy(lat, const, ["g"])


def test_minor_entropy_csv_blank_for_skipped():
    table, lat = minor_fixture()
    lines = minor_feature_entropy(lat, table, ["g", "h"]).to_csv_text().strip().split("\n")
    assert lines[0] == "patch,g,h"
    assert lines[2] == "1,,"


# --- prediction ----------------------------------------------------------


def line_fixture():
    u = np.arange(40, dtype=float)
    table = num_table(
        u=("continuous", u),
        y1=("continuous", 2.0 * u),
        # each row its own power of two: the sum over a set of rows names the set
        y2=("continuous", 2.0 ** u),
        g=("categorical", ["p", "q"] * 20),
        m=("discrete", np.arange(40) % 3),
        c=("continuous", u.copy()),
    )
    spec = ResponseSpec(("y1", "y2"), ("u", "g", "m", "c"))
    binnings = {"u": build_histogram(u, target_bins=4, feature="u")}
    lat = build_locality_lattice(table, spec, ["u"], binnings)
    return table, spec, binnings, lat


def mean_of(table, rows):
    """The response means of exactly these rows of line_fixture's table, as
    a one-row prediction's values list; no other set of as many rows has
    the same y2 mean, and every sum is exact in any order."""
    return [feature_matrix(table, ["y1", "y2"])[list(rows)].mean(axis=0).tolist()]


def flag_set(pred, i=0):
    return {flag for flag, on in zip(FLAGS, pred.flags[i]) if on}


def test_predict_full_cell_mean():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[5.0]]), {}, lat, table, k_star=50)
    assert p.values.tolist() == mean_of(table, range(10))
    assert flag_set(p) == {"underfilled"}
    assert p.cells.tolist() == [[0]]
    assert p.flags.any(axis=1).tolist() == [True]


def test_predict_takes_k_nearest():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[5.2]]), {}, lat, table, k_star=3)
    assert p.values.tolist() == mean_of(table, [5, 6, 4])
    assert flag_set(p) == set()
    assert p.flags.any(axis=1).tolist() == [False]


def test_predict_distance_tie_prefers_smaller_row():
    table = num_table(u=("continuous", [0.0, 1.0, 1.0, 2.0]),
                      y=("continuous", [0.0, 10.0, 20.0, 30.0]))
    binnings = {"u": build_histogram(np.array([0.0, 1.0, 1.0, 2.0]), target_bins=3, feature="u")}
    lat = build_locality_lattice(table, ResponseSpec(("y",), ("u",)), ["u"], binnings)
    p = rma_predict_rows(np.array([[1.0]]), {}, lat, table, k_star=1)
    assert p.values.tolist() == [[10.0]]
    # rows 0 and 4 tie at distance 2 from u = 2: row 0 fills the fourth place
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[2.0]]), {}, lat, table, k_star=4)
    assert p.values.tolist() == mean_of(table, [2, 1, 3, 0])


def test_predict_out_of_range_clamps():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[-5.0]]), {}, lat, table, k_star=10)
    assert p.cells.tolist() == [[0]]
    assert "out_of_range" in flag_set(p)
    assert p.values.tolist() == mean_of(table, range(10))
    hi = rma_predict_rows(np.array([[100.0]]), {}, lat, table, k_star=10)
    assert hi.cells.tolist() == [[3]]
    assert "out_of_range" in flag_set(hi)
    assert hi.values.tolist() == mean_of(table, range(30, 40))


def test_predict_empty_cell_borrows_neighbors():
    table, spec, binnings, _ = line_fixture()
    lat = build_locality_lattice(table, spec, ["u"], binnings, bin_subset={"u": [0, 2]})
    p = rma_predict_rows(np.array([[15.0]]), {}, lat, table, k_star=100)
    assert p.cells.tolist() == [[1]]
    assert flag_set(p) == {"adjacent_fallback", "underfilled"}
    assert p.values.tolist() == mean_of(table, list(range(10)) + list(range(20, 30)))


def test_predict_uncovered_region_raises():
    table, spec, _, _ = line_fixture()
    fine = {"u": build_histogram(np.arange(40, dtype=float), target_bins=8, feature="u")}
    lat = build_locality_lattice(table, spec, ["u"], fine, bin_subset={"u": [0, 7]})
    with pytest.raises(DataError, match="uncovered covariate region"):
        rma_predict_rows(np.array([[17.0]]), {}, lat, table, k_star=5)


def test_predict_categorical_sieve():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[2.0]]), {"g": ["p"]}, lat, table, k_star=5)
    assert p.values.tolist() == mean_of(table, [0, 2, 4])
    assert flag_set(p) == set()


def test_predict_empty_sieve_falls_back():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[2.0]]), {"g": ["zzz"]}, lat, table, k_star=5)
    assert flag_set(p) == {"sieve_fallback"}
    assert p.values.tolist() == mean_of(table, range(5))


def test_predict_discrete_sieve():
    table, _, _, lat = line_fixture()
    p = rma_predict_rows(np.array([[2.0]]), {"m": [2.0]}, lat, table, k_star=5)
    assert p.values.tolist() == mean_of(table, [2])


def test_predict_continuous_sieve_needs_binning():
    table, _, _, lat = line_fixture()
    with pytest.raises(DataError, match="needs a binning"):
        rma_predict_rows(np.array([[2.0]]), {"c": [3.0]}, lat, table, k_star=5)
    mb = {"c": build_histogram(np.arange(40, dtype=float), target_bins=20, feature="c")}
    p = rma_predict_rows(np.array([[2.0]]), {"c": [3.0]}, lat, table, k_star=5, minor_binnings=mb)
    assert p.values.tolist() == mean_of(table, [2, 3])


def test_predict_input_validation():
    # a one-row query is checked like any other: k_star, then the major count
    table, _, _, lat = line_fixture()
    with pytest.raises(ConfigError, match="k_star"):
        rma_predict_rows(np.array([[2.0]]), {}, lat, table, k_star=0)
    with pytest.raises(ConfigError, match="k_star"):
        rma_predict_rows(np.array([[2.0, 3.0]]), {}, lat, table, k_star=-1)
    with pytest.raises(DataError, match="expected 1 major values, got 0"):
        rma_predict_rows(np.empty((1, 0)), {}, lat, table)
    with pytest.raises(DataError, match="expected 1 major values, got 2"):
        rma_predict_rows(np.array([[1.0, 2.0]]), {}, lat, table)


def test_predict_rows_matches_one_row_calls():
    table, _, _, lat = line_fixture()
    mb = {"c": build_histogram(np.arange(40, dtype=float), target_bins=20, feature="c")}
    X = np.array([[5.2], [2.0], [-5.0], [100.0], [2.0]])
    minors = {"g": ["p", "q", "zzz", "p", "q"], "c": [3.0, 1.0, 0.0, 39.0, 30.0]}
    got = rma_predict_rows(X, minors, lat, table, k_star=5, minor_binnings=mb)
    for i in range(len(X)):
        one = rma_predict_rows(X[i:i + 1], {m: v[i:i + 1] for m, v in minors.items()}, lat, table, k_star=5,
                               minor_binnings=mb)
        assert (got.values[i].tobytes(), got.cells[i].tolist(), got.flags[i].tolist()) == \
            (one.values[0].tobytes(), one.cells[0].tolist(), one.flags[0].tolist())
    none = rma_predict_rows(np.empty((0, 1)), {}, lat, table)
    assert (none.values.shape, none.cells.shape, none.flags.shape) == ((0, 2), (0, 1), (0, len(FLAGS)))


def non_finite_fixture():
    table = num_table(du=("discrete", [1, 1, 2, 2, 4, 4]),
                      u=("continuous", [0, 1, 2, 3, 4, 5]),
                      y=("continuous", [0, 1, 2, 3, 4, 5]))
    binnings = {"u": build_histogram(np.arange(6, dtype=float), target_bins=2, feature="u")}
    return table, build_locality_lattice(table, ResponseSpec(("y",), ("du", "u")), ["du", "u"], binnings)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_major_values(bad):
    table, lat = non_finite_fixture()
    # a discrete major used to snap NaN to its last value, flagged only as out of range
    with pytest.raises(DataError, match="major 'du' has a non-finite value in query row 0"):
        rma_predict_rows(np.array([[bad, 1.0]]), {}, lat, table)
    with pytest.raises(DataError, match="major 'u' has a non-finite value in query row 0"):
        rma_predict_rows(np.array([[2.0, bad]]), {}, lat, table)
    with pytest.raises(DataError, match="major 'du' has a non-finite value in query row 2"):
        rma_predict_rows(np.array([[1.0, 1.0], [2.0, 2.0], [bad, 3.0], [bad, 4.0]]), {}, lat, table)
    with pytest.raises(DataError, match="major 'u'"):
        rma_predict_rows(np.array([[1.0, 1.0], [2.0, bad]]), {}, lat, table)
    with pytest.raises(DataError, match="major 'du' has a non-finite value in query row 0"):
        lat.locate_rows([[bad, 1.0]])


def test_predict_rows_uncovered_region_names_the_first_row():
    table, spec, _, _ = line_fixture()
    fine = {"u": build_histogram(np.arange(40, dtype=float), target_bins=8, feature="u")}
    lat = build_locality_lattice(table, spec, ["u"], fine, bin_subset={"u": [0, 7]})
    # 6.0 borrows bin 0; 22.0 (bin 4) and 17.0 (bin 3) have no occupied neighbor
    message = "uncovered covariate region: rectangle (4,) and all adjacent rectangles are empty"
    with pytest.raises(DataError) as info:
        rma_predict_rows(np.array([[6.0], [22.0], [17.0]]), {}, lat, table)
    assert str(info.value) == message
    with pytest.raises(DataError) as info:
        rma_predict_rows(np.array([[22.0]]), {}, lat, table)
    assert str(info.value) == message
    with pytest.raises(DataError, match=r"rectangle \(3,\)"):
        rma_predict_rows(np.array([[17.0], [22.0]]), {}, lat, table)


def test_predict_rows_input_validation():
    table, _, _, lat = line_fixture()
    with pytest.raises(ConfigError, match="k_star"):
        rma_predict_rows(np.array([[2.0]]), {}, lat, table, k_star=0)
    with pytest.raises(DataError, match="expected 1 major values, got 2"):
        rma_predict_rows(np.array([[1.0, 2.0]]), {}, lat, table)
    with pytest.raises(DataError, match="2-d"):
        rma_predict_rows(np.array([1.0, 2.0]), {}, lat, table)
    with pytest.raises(DataError, match="minor 'g' has 1 values for 2 query rows"):
        rma_predict_rows(np.array([[1.0], [2.0]]), {"g": ["p"]}, lat, table)


# --- error metrics -------------------------------------------------------


def preds_at(values, cells):
    """Unflagged predictions with these values in these cells, row by row."""
    values = np.asarray(values, dtype=float)
    return RmaPredictions(values=values, cells=np.array(cells),
                          flags=np.zeros((len(values), len(FLAGS)), dtype=bool))


def metrics_fixture():
    u = np.arange(6, dtype=float)
    # zero-mean, orthogonal, each with squares summing to n - 1: the training
    # response covariance is exactly the identity
    y1 = np.array([2.0, -0.5, -0.5, -0.5, -0.5, 0.0])
    y2 = np.array([0.0, 1.5, -1.5, 0.5, -0.5, 0.0])
    table = num_table(u=("continuous", u), y1=("continuous", y1), y2=("continuous", y2))
    lat = LocalityLattice(
        majors=["u"], cats_per_major=[["b0", "b1"]], binnings={},
        discrete_values={"u": np.unique(u)},
        cells={(0,): np.arange(4), (1,): np.array([4, 5])},
        cell_regions={}, responses=["y1", "y2"],
        zstats=ZStats.fit(u.reshape(-1, 1)), n_rows=6,
    )
    return table, lat


def test_identity_covariance_sums_squared_errors():
    table, lat = metrics_fixture()
    preds = preds_at([[0, 1], [1, 0], [2, 2], [3, 3]], [(0,)] * 4)
    truths = np.zeros((4, 2))
    Y = np.column_stack([table.values("y1"), table.values("y2")])
    assert np.cov(Y, rowvar=False, ddof=1).tolist() == np.eye(2).tolist()
    report = error_metrics(preds, truths, lat, table)
    pooled = report.patches[-1]
    assert pooled.name == "ALL"
    assert pooled.mse["y1"] == pytest.approx(3.5)
    assert pooled.mse["y2"] == pytest.approx(3.5)
    assert pooled.mahal_global == pytest.approx(pooled.mse["y1"] + pooled.mse["y2"], abs=1e-12)
    assert not pooled.ridged_global


def test_mahalanobis_matches_hand_inverse():
    table, lat = metrics_fixture()
    rng = np.random.default_rng(21)
    cells = [(0,), (0,), (0,), (1,), (1,)]
    preds = preds_at(rng.normal(size=(5, 2)), cells)
    truths = rng.normal(size=(5, 2))
    report = error_metrics(preds, truths, lat, table)
    E = preds.values - truths
    Y = np.column_stack([table.values("y1"), table.values("y2")]).astype(float)
    inv_g = np.linalg.inv(np.cov(Y, rowvar=False, ddof=1))
    for patch, idx in [(report.patches[0], [0, 1, 2]), (report.patches[1], [3, 4])]:
        hand = float(np.mean([E[i] @ inv_g @ E[i] for i in idx]))
        assert patch.mahal_global == pytest.approx(hand, rel=1e-10)
        assert not patch.ridged_global
    # patch (0,) has 4 members: patch-specific covariance applies
    inv_p = np.linalg.inv(np.cov(Y[:4], rowvar=False, ddof=1))
    hand_p = float(np.mean([E[i] @ inv_p @ E[i] for i in [0, 1, 2]]))
    assert report.patches[0].mahal_patch == pytest.approx(hand_p, rel=1e-10)
    # patch (1,) has 2 members: skipped
    assert report.patches[1].mahal_patch is None


def test_singular_covariance_gets_flagged_ridge():
    u = np.arange(6, dtype=float)
    y1 = np.arange(6, dtype=float)
    table = num_table(u=("continuous", u), y1=("continuous", y1),
                      y2=("continuous", 2.0 * y1))
    lat = LocalityLattice(
        majors=["u"], cats_per_major=[["b0"]], binnings={},
        discrete_values={"u": np.unique(u)}, cells={(0,): np.arange(6)},
        cell_regions={}, responses=["y1", "y2"],
        zstats=ZStats.fit(u.reshape(-1, 1)), n_rows=6,
    )
    preds = preds_at([[1.0, 0.0]] * 4, [(0,)] * 4)
    report = error_metrics(preds, np.zeros((4, 2)), lat, table)
    patch = report.patches[0]
    assert patch.ridged_global and patch.ridged_patch
    assert np.isfinite(patch.mahal_global) and np.isfinite(patch.mahal_patch)
    assert report.patches[-1].ridged_global


def test_patches_sorted_with_pooled_last():
    table, lat = metrics_fixture()
    preds = preds_at([[0, 0], [0, 0], [1, 1]], [(1,), (0,), (1,)])
    report = error_metrics(preds, np.zeros((3, 2)), lat, table)
    assert [p.name for p in report.patches] == ["0", "1", "ALL"]
    assert [p.n for p in report.patches] == [1, 2, 3]


def test_error_metrics_validation():
    table, lat = metrics_fixture()
    with pytest.raises(DataError, match="no predictions"):
        error_metrics(preds_at(np.zeros((0, 2)), np.zeros((0, 1), dtype=int)), np.zeros((0, 2)), lat, table)
    bad = preds_at([[0, 0, 0]], [(0,)])
    with pytest.raises(DataError, match="does not match the response list"):
        error_metrics(bad, np.zeros((1, 3)), lat, table)


def test_error_report_csv_layout():
    table, lat = metrics_fixture()
    preds = preds_at([[0, 0], [0, 0]], [(1,), (0,)])
    lines = error_metrics(preds, np.zeros((2, 2)), lat, table).to_csv_text().strip().split("\n")
    assert lines[0] == "patch,n,mse_y1,mse_y2,mahal_global,mahal_patch,ridged_global,ridged_patch"
    # the 2-member patch and the pooled row leave mahal_patch blank
    assert lines[2].split(",")[5] == ""
    assert lines[3].split(",")[5] == ""


# --- per-label least squares ---------------------------------------------


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p + 1)
        y = beta[0] + X @ beta[1:] + 0.3 * rng.normal(size=n)
        cols = {"x%d" % j: ("continuous", X[:, j].copy()) for j in range(p)}
        cols["y"] = ("continuous", y)
        table = num_table(**cols)
        names = ["x%d" % j for j in range(p)]
        fit = ols_fit(one_label(table), "y", names, per_label=False)[0]
        b, se, pv, rse, df = ols_oracle(np.column_stack([np.ones(n), X]), y)
        for i, nm in enumerate(["intercept"] + names):
            assert fit.coef[nm] == pytest.approx(b[i], rel=1e-9, abs=1e-12)
            assert fit.se[nm] == pytest.approx(se[i], rel=1e-9, abs=1e-12)
            assert fit.pvalue[nm] == pytest.approx(pv[i], rel=1e-6, abs=1e-12)
            # the p-value is the two-sided tail of the t distribution
            tail = 2.0 * scipy_special.stdtr(df, -abs(fit.coef[nm] / fit.se[nm]))
            assert fit.pvalue[nm] == pytest.approx(tail, rel=1e-8)
        assert fit.resid_se == pytest.approx(rse, rel=1e-9)
        assert fit.df == df
        assert fit.label == "ALL"


def test_ols_recovers_noiseless_per_label_coefficients():
    coefs = [(1.0, 2.0, 0.5), (-1.0, 0.25, 1.1), (0.7, 3.0, 0.9)]
    ds = synth_generate("linear-speed", {"n_per_label": 50, "coefs": coefs}, seed=4)
    fits = ols_fit(ds, "end_speed", ["x0", "start_speed"])
    assert [f.label for f in fits] == ["a", "b", "c"]
    for f, (alpha, b1, b2) in zip(fits, coefs):
        assert f.coef["intercept"] == pytest.approx(alpha, abs=1e-6)
        assert f.coef["x0"] == pytest.approx(b1, abs=1e-8)
        assert f.coef["start_speed"] == pytest.approx(b2, abs=1e-8)
        assert f.resid_se < 1e-8
        assert f.df == 50 - 3
        assert all(f.significant.values())


def test_ols_report_layout_and_stars():
    x = np.arange(12, dtype=float)
    table = num_table(x=("continuous", x), y=("continuous", 3.0 + 2.0 * x))
    fits = ols_fit(one_label(table), "y", ["x"], per_label=False)
    lines = ols_report_text(fits, ["x"]).strip().split("\n")
    assert lines[0] == "label,intercept,x,residual_std_error,df"
    cells = lines[1].split(",")
    assert cells[0] == "ALL"
    assert cells[1] == "3*"
    assert cells[2] == "2*"
    assert cells[4] == "10"


def test_ols_pooled_when_per_label_disabled():
    ds = synth_generate("linear-speed", {"n_per_label": 30}, seed=1)
    fits = ols_fit(ds, "end_speed", ["x0", "start_speed"], per_label=False)
    assert len(fits) == 1 and fits[0].label == "ALL"


def test_ols_collinear_columns_named():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=20)
    table = num_table(x0=("continuous", x0), x1=("continuous", 2.0 * x0),
                      y=("continuous", x0 + rng.normal(size=20)))
    # the larger of two proportional columns is taken first, so x0 is named
    with pytest.raises(DataError, match="collinear design columns: x0$"):
        ols_fit(one_label(table), "y", ["x0", "x1"], per_label=False)


@pytest.mark.parametrize("x1,named", [
    (lambda x0: np.full_like(x0, 3.0), "intercept"),  # the constant's norm beats the intercept's
    (lambda x0: x0.copy(), "x1"),                      # a tie takes the first copy
])
def test_ols_names_the_dependent_column(x1, named):
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=20)
    table = num_table(x0=("continuous", x0), x1=("continuous", x1(x0)),
                      y=("continuous", x0 + rng.normal(size=20)))
    with pytest.raises(DataError, match="collinear design columns: %s$" % named):
        ols_fit(one_label(table), "y", ["x0", "x1"], per_label=False)


def test_ols_near_duplicate_column_named():
    # x1 is x0 within rounding: the SVD rank flags the design, and the
    # pivoting, limited to that rank, must name x1
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=12)
    x1 = x0 + 1e-14 * rng.normal(size=12)
    table = num_table(x0=("continuous", x0), x1=("continuous", x1), y=("continuous", rng.normal(size=12)))
    with pytest.raises(DataError, match="collinear design columns: x1$"):
        ols_fit(one_label(table), "y", ["x0", "x1"], per_label=False)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 4), n_extra=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       copies=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-9])),
                       max_size=3))
# full rank by the SVD, yet X'X is singular: a DataError, not a LinAlgError
@example(p=1, n_extra=1, seed=0, copies=[(0, 1e-14)])
def test_ols_collinear_error_names_the_rank_deficit(p, n_extra, seed, copies):
    # covariates near-duplicating earlier ones, at scales on both sides of
    # the rank tolerance
    rng = np.random.default_rng(seed)
    n = p + 1 + len(copies) + n_extra
    cols = [rng.normal(size=n) for _ in range(p)]
    for source, eps in copies:
        cols.append(cols[source % len(cols)] + eps * rng.normal(size=n))
    names = ["x%d" % j for j in range(len(cols))]
    table = num_table(y=("continuous", rng.normal(size=n)), **{nm: ("continuous", c) for nm, c in zip(names, cols)})
    rank = np.linalg.lstsq(np.column_stack([np.ones(n)] + cols), np.zeros(n), rcond=None)[2]
    try:
        ols_fit(one_label(table), "y", names, per_label=False)
    except DataError as exc:
        if "X'X is singular" not in str(exc):
            named = str(exc).split("collinear design columns: ")[1].split(", ")
            assert len(named) == len(cols) + 1 - rank >= 1
    else:
        assert rank == len(cols) + 1


def scipy_collinear_columns(X, names):
    """The design columns a pivoted Householder QR finds dependent."""
    _, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps
    return sorted(names[piv[i]] for i in range(len(diag)) if diag[i] <= tol)


@st.composite
def dependent_designs(draw):
    """A small-integer design with an intercept column, free columns and
    columns that are integer combinations of earlier ones, in any order."""
    n_free = draw(st.integers(0, 3))
    n_dep = draw(st.integers(1, 3))
    n = draw(st.integers(n_free + n_dep + 1, 10))
    cols = [np.ones(n)]
    for _ in range(n_free):
        cols.append(np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=float))
    for _ in range(n_dep):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols)))
        cols.append(sum(c * col for c, col in zip(coefs, cols)))
    order = draw(st.permutations(range(len(cols))))
    return np.column_stack([cols[j] for j in order])


def exact_collinear_columns(X, names):
    """Gram-Schmidt with column pivoting in rational arithmetic: the largest
    remaining residual first, the first index on a tie, and the columns whose
    residual is exactly zero named.  Also whether two residuals ever tied."""
    cols = [[Fraction(int(v)) for v in X[:, j]] for j in range(X.shape[1])]
    left = list(range(len(cols)))
    tied = False
    while left:
        sq = [sum(v * v for v in cols[j]) for j in left]
        best = max(sq)
        if best == 0:
            break
        tied = tied or sq.count(best) > 1
        q = cols[left.pop(sq.index(best))]
        for j in left:
            f = sum(a * b for a, b in zip(q, cols[j])) / best
            cols[j] = [a - f * b for a, b in zip(cols[j], q)]
    return sorted(names[j] for j in left), tied


@settings(max_examples=300, deadline=None)
@given(X=dependent_designs())
def test_collinear_columns_match_pivoted_qr(X):
    names = ["c%d" % j for j in range(X.shape[1])]
    rank = np.linalg.matrix_rank(X)
    named = _collinear_columns(X, names, rank)
    exact, tied = exact_collinear_columns(X, names)
    assert named == exact
    assert len(named) == X.shape[1] - rank
    # on a tie the rounding of the Householder steps picks the pivot
    if not tied:
        assert named == scipy_collinear_columns(X, names)


def test_ols_zero_standard_errors():
    # a zero response fits exactly with zero estimates: t = 0 and p = 1
    x = np.arange(12, dtype=float)
    table = num_table(x=("continuous", x), y=("continuous", np.zeros(12)))
    fit = ols_fit(one_label(table), "y", ["x"], per_label=False)[0]
    assert fit.se == {"intercept": 0.0, "x": 0.0}
    assert fit.pvalue == {"intercept": 1.0, "x": 1.0}
    assert not any(fit.significant.values())


@pytest.mark.parametrize("df", [1, 2, 7, 10 ** 6])
def test_t_pvalue_edges(df):
    # a zero standard error gives t = +-inf for a nonzero estimate, t = 0 for a zero one
    assert t_two_sided_pvalue(math.inf, df) == 0.0
    assert t_two_sided_pvalue(-math.inf, df) == 0.0
    assert t_two_sided_pvalue(0.0, df) == 1.0
    assert t_two_sided_pvalue(-0.0, df) == 1.0
    assert math.isnan(t_two_sided_pvalue(math.nan, df))


@settings(max_examples=500, deadline=None)
@given(df=st.integers(1, 10 ** 6),
       t=st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1e-300, 3e-161, math.inf, math.nan])),
       sign=st.sampled_from([1.0, -1.0]))
def test_t_pvalue_matches_scipy(df, t, sign):
    got = t_two_sided_pvalue(sign * t, df)
    want = float(2.0 * scipy_special.stdtr(df, -t))
    if math.isnan(t):
        assert math.isnan(got)
        return
    if want >= 1e-300:
        assert abs(got - want) <= 1e-8 * want
    else:
        assert got < 1e-299
    if abs(want - 0.05) > 1e-8 * 0.05:
        assert (got < 0.05) == (want < 0.05)


def test_ols_categorical_response_is_data_error():
    x = np.arange(6, dtype=float)
    table = num_table(x=("continuous", x), c=("categorical", ["u", "v"] * 3))
    with pytest.raises(DataError, match="'c' is categorical"):
        ols_fit(one_label(table), "c", ["x"], per_label=False)


def test_ols_too_few_rows():
    table = num_table(x0=("continuous", [1.0, 2.0, 3.0]),
                      x1=("continuous", [5.0, 1.0, 2.0]),
                      y=("continuous", [1.0, 0.0, 2.0]))
    with pytest.raises(DataError, match="cannot fit"):
        ols_fit(one_label(table), "y", ["x0", "x1"], per_label=False)


def test_ols_config_validation():
    table = num_table(x=("continuous", [1.0, 2.0, 3.0, 4.0]),
                      y=("continuous", [1.0, 0.0, 2.0, 1.0]))
    with pytest.raises(ConfigError, match="at least one covariate"):
        ols_fit(one_label(table), "y", [], per_label=False)
    with pytest.raises(ConfigError, match="repeated in covariates"):
        ols_fit(one_label(table), "y", ["y"], per_label=False)
