"""Acceptance gate: one test per primary behavioral guarantee.

Each test prints a single PASS line (visible with -v / -s) and enforces the
stated time budget, so the suite output reads as a per-criterion checklist.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ceda.association import (
    ContingencyTable,
    contingency_table,
    directed_conditional_entropy,
    mce_matrix,
    mutual_conditional_entropy,
)
from ceda.chain import (
    CASES,
    ChainLink,
    FeatureChain,
    chain_categories,
    dissect_external,
    knn_baseline_predict,
)
from ceda.cli import main as cli_main
from ceda.dataset import (
    Column,
    DataTable,
    LabeledDataset,
    SplitSpec,
    ZStats,
    split_train_test,
    synth_generate,
)
from ceda.discretize import build_histogram, default_binnings
from ceda.hclust import agglomerate
from ceda.label_tree import tree_from_training
from ceda.predictive_map import CompetitionConfig, TreeClassifier
from ceda.rma import (
    FLAGS,
    LocalityLattice,
    ResponseSpec,
    RmaPredictions,
    build_locality_lattice,
    error_metrics,
    ols_fit,
    ols_report_text,
    rma_predict_rows,
)

NO_SCREEN = CompetitionConfig(outlier_quantile=None)


def finish(cid, t0, budget, detail):
    elapsed = time.perf_counter() - t0
    print("%s PASS in %.1fs (budget %ds): %s" % (cid, elapsed, budget, detail))
    assert elapsed < budget, "%s exceeded its %ds budget: %.1fs" % (cid, budget, elapsed)


# --- c01: entropy against a hand-formula oracle; invariances -------------


def _entropy_oracle(weights):
    total = float(sum(weights))
    h = 0.0
    for w in weights:
        if w > 0:
            p = w / total
            h -= p * math.log(p)
    return h


def _dce_oracle(counts, direction):
    rows = [[float(v) for v in row] for row in counts]
    if direction == "col_to_row":
        rows = [list(t) for t in zip(*rows)]
    col_totals = [sum(col) for col in zip(*rows)]
    h_col = _entropy_oracle(col_totals)
    total = sum(col_totals)
    acc = 0.0
    for row in rows:
        rs = sum(row)
        if rs > 0:
            acc += (rs / total) * _entropy_oracle(row)
    return acc / h_col


def _cat_column(name, codes, prefix):
    values = np.array(["%s%d" % (prefix, int(c)) for c in codes], dtype=object)
    return Column(name, "categorical", values)


def _pair_values(matrix):
    out = {}
    for i, a in enumerate(matrix.features):
        for j in range(i + 1, len(matrix.features)):
            out[frozenset((a, matrix.features[j]))] = matrix.values[i, j]
    return out


def test_c01_conditional_entropy_oracle_and_invariances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        r = int(rng.integers(2, 7))
        c = int(rng.integers(2, 7))
        counts = rng.integers(0, 9, (r, c))
        counts[0, 0] += 1
        counts[1, 1] += 1
        t = ContingencyTable("u", "v", ["r%d" % i for i in range(r)],
                             ["c%d" % j for j in range(c)], counts)
        fwd = directed_conditional_entropy(t, "row_to_col")
        bwd = directed_conditional_entropy(t, "col_to_row")
        assert abs(fwd - _dce_oracle(counts, "row_to_col")) <= 1e-12
        assert abs(bwd - _dce_oracle(counts, "col_to_row")) <= 1e-12
        assert abs(mutual_conditional_entropy(t) - 0.5 * (fwd + bwd)) <= 1e-12

    n = 400
    base = rng.integers(0, 3, n)
    f1 = np.where(rng.random(n) < 0.2, rng.integers(0, 3, n), base)
    f2 = rng.integers(0, 4, n)
    f3 = np.where(rng.random(n) < 0.3, rng.integers(0, 4, n), f2)
    codes = [("f0", base, 3), ("f1", f1, 3), ("f2", f2, 4), ("f3", f3, 4)]
    ref = mce_matrix(DataTable([_cat_column(nm, cd, "v") for nm, cd, _ in codes]))
    assert np.array_equal(ref.values, ref.values.T)
    assert np.all(np.diag(ref.values) == 0.0)
    want = _pair_values(ref)
    for _ in range(100):
        cols = []
        for nm, cd, k in codes:
            perm = rng.permutation(k)
            cols.append(_cat_column(nm, perm[cd], "w"))
        got = _pair_values(mce_matrix(DataTable(cols)))
        for key, v in want.items():
            assert abs(got[key] - v) <= 1e-12
    finish("c01", t0, 5, "entropy oracle x1000 at 1e-12; symmetric, zero-diagonal, "
           "relabeling-invariant x100")


# --- c02: association ordering on the spin manifold ----------------------


def test_c02_spin_direction_tracks_movement_better_than_noise():
    t0 = time.perf_counter()
    for seed in range(50):
        ds = synth_generate("magnus-manifold", {"labels": ["a"], "n_per_label": 2000},
                            seed=seed)
        binnings = default_binnings(ds.table, ds.table.names)
        spin = contingency_table(ds.table, "spin_dir", "pfx_x", binnings)
        noise = contingency_table(ds.table, "noise", "pfx_x", binnings)
        assert mutual_conditional_entropy(spin) < mutual_conditional_entropy(noise)
    finish("c02", t0, 10, "MCE(spin_dir, pfx_x) < MCE(noise, pfx_x) in 50/50 runs")


# --- c03: clustering against the brute-force oracle ----------------------


def _brute_merges(d):
    n = len(d)
    clusters = [[i] for i in range(n)]
    ids = list(range(n))
    next_id = n
    merges = []
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                pairs = [d[p][q] for p in clusters[a] for q in clusters[b]]
                h = sum(pairs) / len(pairs)
                if best is None or h < best[0]:
                    best = (h, a, b)
        h, a, b = best
        merges.append((ids[a], ids[b], h))
        merged = clusters[a] + clusters[b]
        for idx in (b, a):
            del clusters[idx], ids[idx]
        clusters.append(merged)
        ids.append(next_id)
        next_id += 1
    return merges


def test_c03_agglomeration_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.1, 2.0, (n, n))
        d = (a + a.T) / 2.0
        np.fill_diagonal(d, 0.0)
        got = agglomerate(d).merges
        want = _brute_merges(d.tolist())
        assert len(got) == len(want)
        for (gi, gj, gh), (wi, wj, wh) in zip(got, want):
            assert (gi, gj) == (wi, wj)
            assert abs(gh - wh) <= 1e-9
    finish("c03", t0, 10, "merge sequences identical on 500 random matrices (n <= 8)")


# --- c04: the label tree joins the close pair first ----------------------


def test_c04_tree_joins_nearby_labels_first():
    t0 = time.perf_counter()
    for seed in range(50):
        ds = synth_generate(
            "gauss-clouds",
            {"centers": [[0, 0], [1, 0], [10, 10]], "sd": 0.1, "n_per_label": 40},
            seed=seed,
        )
        tree = tree_from_training(ds, ["f0", "f1"], samples_per_triplet=200, seed=seed)
        assert tree.node_labels(3) == ("a", "b")
    finish("c04", t0, 10, "labels a and b merge first in 50/50 seeded runs")


# --- c05: set-valued predictions under the stock thresholds --------------


def test_c05_predictive_map_behavior():
    t0 = time.perf_counter()
    cfg = NO_SCREEN
    assert cfg.k_star == 20
    assert cfg.pl_lower == pytest.approx(0.65)
    assert cfg.pl_upper == pytest.approx(100.0 / 65.0)

    # clouds must stay separable after the train z-scoring the classifier
    # applies, so spread the centers across both coordinates (collinear
    # centers with a pure-noise second feature are not separable once that
    # feature is scaled up to unit variance)
    centers = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]]
    ds = synth_generate("gauss-clouds",
                        {"centers": centers, "sd": 0.05, "n_per_label": 60}, seed=1)
    train, test = split_train_test(ds, SplitSpec(0.7, seed=1))
    tree = tree_from_training(train, ["f0", "f1"], seed=5)
    clf = TreeClassifier(tree, train, ["f0", "f1"], cfg)
    preds = clf.classify_rows(test.table)
    correct = sum(p.labels == (str(t),) for p, t in zip(preds, test.label_values))
    assert correct / test.n_rows >= 0.99

    both = synth_generate("gauss-clouds",
                          {"centers": [[0, 0], [0, 0]], "sd": 1.0, "n_per_label": 100},
                          seed=2)
    btrain, btest = split_train_test(both, SplitSpec(0.7, seed=2))
    btree = tree_from_training(btrain, ["f0", "f1"], seed=2)
    bclf = TreeClassifier(btree, btrain, ["f0", "f1"], cfg)
    bpreds = bclf.classify_rows(btest.table)
    stopped = sum(p.labels == ("a", "b") for p in bpreds)
    assert stopped / btest.n_rows >= 0.80

    forced = TreeClassifier(btree, btrain, ["f0", "f1"],
                            CompetitionConfig(pl_lower=1.0, pl_upper=1.0,
                                              outlier_quantile=None))
    fpreds = forced.classify_rows(btest.table)
    assert all(len(p.labels) == 1 for p in fpreds)
    finish("c05", t0, 30, "separable >= 99% singleton-correct; overlap >= 80% "
           "stop at {a,b}; (1,1) band forces 100% singletons")


# --- c06: chain refinement with exact conservation -----------------------


def test_c06_chain_refines_and_conserves():
    t0 = time.perf_counter()
    chain = FeatureChain([
        ChainLink("front", ("f0", "f1"), NO_SCREEN),
        ChainLink("back", ("f2", "f3"), NO_SCREEN),
    ])
    for seed in range(10):
        ds = synth_generate(
            "gauss-clouds",
            {"centers": [[0, 0, 9, 0], [5, 5, 0, 0], [5, 5, 9, 9]],
             "n_per_label": 60, "sd": 0.05},
            seed=seed,
        )
        train, test = split_train_test(ds, SplitSpec(0.7, seed=seed))
        result = chain_categories(test, train, chain, seed=seed)
        depth1 = result.tables[0]
        assert depth1.certain_fraction() < 1.0
        assert len(result.tables) == 2
        assert result.tables[1].certain_fraction() >= 0.99
        assert result.verify_conservation()
        refined = sum(c.total for c in depth1.categories if not c.certain)
        assert refined == result.tables[1].total()
    finish("c06", t0, 30, "depth-2 >= 99% certain and parent/child counts "
           "conserved exactly, 10/10 seeds")


# --- c07: dissecting a baseline classifier -------------------------------


def test_c07_baseline_errors_concentrate_in_uncertain_categories():
    t0 = time.perf_counter()
    ds = synth_generate(
        "gauss-clouds",
        {"centers": [[0, 0], [3, 0], [3.8, 0]], "sd": 0.4, "n_per_label": 150},
        seed=3,
    )
    train, test = split_train_test(ds, SplitSpec(0.7, seed=3))
    chain = FeatureChain([ChainLink("plane", ("f0", "f1"), NO_SCREEN)])
    result = chain_categories(test, train, chain, seed=3)
    preds = knn_baseline_predict(train, test, ["f0", "f1"], k=20)
    report = dissect_external(dict(enumerate(preds)), result)
    assert set(report.totals) == set(CASES)
    assert sum(report.totals.values()) == test.n_rows
    wrong_rate = report.rate_in_uncertain(correct=False)
    right_rate = report.rate_in_uncertain(correct=True)
    assert wrong_rate > right_rate
    finish("c07", t0, 30, "four cases partition all %d points; error rate in "
           "uncertain %.2f > correct rate %.2f" % (test.n_rows, wrong_rate, right_rate))


# --- c08: manifold prediction accuracy, convergence, locality ------------


def _magnus_lattice(n, seed):
    ds = synth_generate("magnus-manifold", {"labels": ["a"], "n_per_label": n}, seed=seed)
    table = ds.table
    spec = ResponseSpec(("pfx_x", "pfx_z"), ("spin_dir", "spin_rate"))
    binnings = {
        m: build_histogram(np.asarray(table.values(m), dtype=float),
                           target_bins=8, feature=m)
        for m in ("spin_dir", "spin_rate")
    }
    return table, build_locality_lattice(table, spec, ["spin_dir", "spin_rate"], binnings)


def _shift_rows_outside(table, keep_rows):
    keep = np.zeros(table.n_rows, dtype=bool)
    keep[list(keep_rows)] = True
    cols = []
    for col in table.columns:
        if col.kind == "categorical":
            cols.append(col)
        else:
            moved = np.asarray(col.values, dtype=float).copy()
            moved[~keep] += 1000.0
            cols.append(Column(col.name, col.kind, moved))
    return DataTable(cols)


def test_c08_manifold_prediction_and_locality():
    t0 = time.perf_counter()
    qrng = np.random.default_rng(1108)
    n_q = 800
    qs = np.column_stack([qrng.uniform(0.0, 2.0 * np.pi, n_q),
                          qrng.uniform(0.75, 1.25, n_q)])
    truth = np.column_stack([qs[:, 1] * np.sin(qs[:, 0]),
                             qs[:, 1] * np.cos(qs[:, 0])])

    table, lattice = _magnus_lattice(5000, seed=11)
    preds = rma_predict_rows(qs, {}, lattice, table, k_star=20)
    E = preds.values - truth
    mae = float(np.mean(np.abs(E)))
    assert mae < 0.05

    rmses = []
    for n in (1000, 2000, 4000, 8000):
        tbl_n, lat_n = _magnus_lattice(n, seed=11)
        En = rma_predict_rows(qs, {}, lat_n, tbl_n, k_star=20).values - truth
        rmses.append(float(np.sqrt(np.mean(En ** 2))))
    for bigger, smaller in zip(rmses, rmses[1:]):
        assert smaller < bigger * 1.05

    checked = 0
    for i in range(40):
        if preds.flagged[i]:
            continue
        shifted = _shift_rows_outside(table, lattice.cells[tuple(preds.cells[i].tolist())])
        p2 = rma_predict_rows(qs[i:i + 1], {}, lattice, shifted, k_star=20)
        assert np.array_equal(p2.values, preds.values[i:i + 1])
        checked += 1
    assert checked >= 10
    finish("c08", t0, 60, "mean abs error %.4f < 0.05; rmse over doubling N %s "
           "decreasing; %d unflagged predictions invariant to outside-rectangle "
           "perturbation" % (mae, ["%.3f" % r for r in rmses], checked))


# --- c09: error metric identity and the ridge guard ----------------------


def _hand_lattice(table, cells):
    u = np.asarray(table.values("u"), dtype=float)
    return LocalityLattice(
        majors=["u"], cats_per_major=[["b%d" % i for i in range(len(cells))]],
        binnings={}, discrete_values={"u": np.unique(u)}, cells=cells,
        cell_regions={}, responses=["y1", "y2"],
        zstats=ZStats.fit(u.reshape(-1, 1)), n_rows=table.n_rows,
    )


def _unflagged_in_first_cell(values):
    return RmaPredictions(values=np.asarray(values, dtype=float), cells=np.zeros((len(values), 1), dtype=int),
                          flags=np.zeros((len(values), len(FLAGS)), dtype=bool))


def test_c09_identity_covariance_and_ridge_guard():
    t0 = time.perf_counter()
    # zero-mean, orthogonal responses whose squares sum to n - 1: the
    # training response covariance is exactly the identity
    table = DataTable([
        Column("u", "continuous", np.arange(6, dtype=float)),
        Column("y1", "continuous", np.array([2.0, -0.5, -0.5, -0.5, -0.5, 0.0])),
        Column("y2", "continuous", np.array([0.0, 1.5, -1.5, 0.5, -0.5, 0.0])),
    ])
    Y = np.column_stack([table.values("y1"), table.values("y2")])
    assert np.cov(Y, rowvar=False, ddof=1).tolist() == np.eye(2).tolist()
    lattice = _hand_lattice(table, {(0,): np.arange(4), (1,): np.array([4, 5])})
    preds = _unflagged_in_first_cell([[0, 1], [1, 0], [2, 2], [3, 3]])
    report = error_metrics(preds, np.zeros((4, 2)), lattice, table)
    pooled = report.patches[-1]
    assert pooled.name == "ALL"
    assert abs(pooled.mahal_global - (pooled.mse["y1"] + pooled.mse["y2"])) <= 1e-12
    assert not pooled.ridged_global

    flat = DataTable([
        Column("u", "continuous", np.arange(6, dtype=float)),
        Column("y1", "continuous", np.arange(6, dtype=float)),
        Column("y2", "continuous", 2.0 * np.arange(6, dtype=float)),
    ])
    rlattice = _hand_lattice(flat, {(0,): np.arange(6)})
    rpreds = _unflagged_in_first_cell([[1.0, 0.0]] * 4)
    rreport = error_metrics(rpreds, np.zeros((4, 2)), rlattice, flat)
    patch = rreport.patches[0]
    assert patch.ridged_global and patch.ridged_patch
    assert np.isfinite(patch.mahal_global) and np.isfinite(patch.mahal_patch)
    finish("c09", t0, 5, "identity covariance reproduces summed per-response "
           "error at 1e-12; rank-deficient patch ridged and flagged")


# --- c10: least squares against the normal-equations oracle --------------


def test_c10_least_squares_oracle_and_report():
    t0 = time.perf_counter()
    rng = np.random.default_rng(910)
    for _ in range(100):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        beta = rng.normal(size=p + 1)
        y = beta[0] + X @ beta[1:] + 0.3 * rng.normal(size=n)
        cols = [Column("x%d" % j, "continuous", X[:, j].copy()) for j in range(p)]
        cols.append(Column("y", "continuous", y))
        cols.append(Column("label", "categorical", np.full(n, "a", dtype=object)))
        names = ["x%d" % j for j in range(p)]
        fit = ols_fit(LabeledDataset(DataTable(cols), "label"), "y", names, per_label=False)[0]
        Xd = np.column_stack([np.ones(n), X])
        xtx = Xd.T @ Xd
        bhat = np.linalg.solve(xtx, Xd.T @ y)
        resid = y - Xd @ bhat
        df = n - p - 1
        s2 = float(resid @ resid) / df
        se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
        pv = 2.0 * scipy_stats.t.sf(np.abs(bhat / se), df)
        for i, nm in enumerate(["intercept"] + names):
            assert fit.coef[nm] == pytest.approx(bhat[i], rel=1e-9, abs=1e-12)
            assert fit.se[nm] == pytest.approx(se[i], rel=1e-9, abs=1e-12)
            assert fit.pvalue[nm] == pytest.approx(pv[i], rel=1e-6, abs=1e-12)
        assert fit.resid_se == pytest.approx(math.sqrt(s2), rel=1e-9)
        assert fit.df == df

    coefs = [(1.0, 2.0, 0.5), (-1.0, 0.25, 1.1), (0.7, 3.0, 0.9)]
    ds = synth_generate("linear-speed", {"n_per_label": 50, "coefs": coefs}, seed=4)
    fits = ols_fit(ds, "end_speed", ["x0", "start_speed"])
    for f, (alpha, b1, b2) in zip(fits, coefs):
        assert f.coef["intercept"] == pytest.approx(alpha, abs=1e-6)
        assert f.coef["x0"] == pytest.approx(b1, abs=1e-8)
        assert f.coef["start_speed"] == pytest.approx(b2, abs=1e-8)
        assert f.resid_se < 1e-8
    lines = ols_report_text(fits, ["x0", "start_speed"]).strip().split("\n")
    assert lines[0] == "label,intercept,x0,start_speed,residual_std_error,df"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1].endswith("*") and cells[2].endswith("*") and cells[3].endswith("*")
        assert cells[5] == "47"
    finish("c10", t0, 5, "oracle agreement at 1e-9 on 100 instances; noiseless "
           "recovery exact; starred report columns")


# --- c11: CLI pipeline reproducibility -----------------------------------


def _snapshot(dirs):
    out = {}
    for d in dirs:
        for p in sorted(Path(d).rglob("*")):
            if p.is_file():
                out[str(p)] = p.read_bytes()
    return out


def test_c11_cli_pipeline_reproducible(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "seed": 5, "out_dir": str(data_dir),
        "synth": {"kind": "magnus-manifold",
                  "params": {"labels": ["a", "b", "c"], "n_per_label": 120,
                             "label_offset_scale": 0.4, "noise_sd": 0.05}},
    }))
    base = {
        "dataset": str(data_dir / "dataset.csv"),
        "label_column": "label",
        "seed": 5,
        "feature_sets": {"kin": ["spin_dir", "spin_rate"],
                         "resp": ["pfx_x", "pfx_z"]},
        "competition": {"outlier_quantile": None},
        "chain": ["kin", "resp"],
    }
    extras = {
        "mce": {},
        "let": {},
        "pmap": {},
        "chain": {},
        "dissect": {"dissect": {"knn_k": 10}},
        "rma": {"rma": {
            "responses": ["pfx_x", "pfx_z"],
            "major_candidates": ["spin_dir", "spin_rate", "noise"],
            "majors": ["spin_dir", "spin_rate"],
            "minors": ["noise"],
            "bins_per_major": 5,
            "k_star": 10,
        }},
    }
    cfg_paths, out_dirs = {}, [data_dir]
    for cmd, extra in extras.items():
        out = tmp_path / ("out_" + cmd)
        out_dirs.append(out)
        cfg = dict(base, out_dir=str(out), **extra)
        path = tmp_path / (cmd + ".json")
        path.write_text(json.dumps(cfg))
        cfg_paths[cmd] = path

    def run_all():
        assert cli_main(["synth", "--config", str(synth_cfg)]) == 0
        for cmd in extras:
            assert cli_main([cmd, "--config", str(cfg_paths[cmd])]) == 0

    run_all()
    first = _snapshot(out_dirs)
    run_all()
    second = _snapshot(out_dirs)
    assert set(first) == set(second)
    n_files = 0
    for name in first:
        if name.endswith("manifest.json"):
            a, b = json.loads(first[name]), json.loads(second[name])
            a.pop("timestamp"), b.pop("timestamp")
            assert a == b, name
        else:
            assert first[name] == second[name], name
        n_files += 1
    finish("c11", t0, 60, "7 commands, %d artifact files byte-identical across "
           "reruns (manifest timestamps excluded)" % n_files)
