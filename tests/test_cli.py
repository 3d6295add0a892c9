"""End-to-end command line runs: artifacts, exit codes, reproducibility."""

import csv
import errno
import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ceda
import ceda.cli
import ceda.label_tree
import ceda.rma
from ceda.cli import REQUIRED, SETTINGS, STAGE_OFFSETS, main, stage_seed
from ceda.label_tree import tree_from_training
from test_hclust import newick_leaves


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_cfg(path, **cfg):
    path.write_text(json.dumps(cfg))
    return path


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture()
def clouds_csv(tmp_path):
    out = tmp_path / "synth"
    params = {"centers": [[0, 0], [4, 0], [0, 4]], "n_per_label": 40, "sd": 0.4}
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", json.dumps(params),
                   "--seed", 5, "--out", out) == 0
    return out / "dataset.csv"


@pytest.fixture()
def ortho_csv(tmp_path):
    out = tmp_path / "ortho"
    params = {"centers": [[0, 0, 9, 0], [5, 5, 0, 0], [5, 5, 9, 9]],
              "n_per_label": 60, "sd": 0.05}
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", json.dumps(params),
                   "--seed", 3, "--out", out) == 0
    return out / "dataset.csv"


def ortho_cfg(tmp_path, dataset, out_name, **extra):
    cfg = {
        "dataset": str(dataset),
        "label_column": "label",
        "seed": 7,
        "out_dir": str(tmp_path / out_name),
        "feature_sets": {"front": ["f0", "f1"], "back": ["f2", "f3"]},
        "chain": ["front", "back"],
        "competition": {"outlier_quantile": None},
    }
    cfg.update(extra)
    return write_cfg(tmp_path / (out_name + ".json"), **cfg)


# --- synth ----------------------------------------------------------------


def test_synth_artifacts_and_manifest(tmp_path, capsys):
    out = tmp_path / "s"
    params = {"centers": [[0, 0], [4, 0]], "n_per_label": 30, "sd": 0.3}
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", json.dumps(params),
                   "--seed", 5, "--out", out) == 0
    assert (out / "dataset.csv").exists()
    truth = read_json(out / "dataset_truth.json")
    assert truth["labels"] == ["a", "b"]
    assert truth["n_rows"] == 60
    assert truth["columns"]["label"] == "categorical"
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert manifest["artifacts"] == ["dataset.csv", "dataset_truth.json"]
    assert set(manifest) == {"command", "version", "seed", "config_sha256",
                             "artifacts", "timestamp"}
    assert "synth: 60 rows, 2 labels" in capsys.readouterr().out


def test_synth_requires_kind(tmp_path):
    assert run_cli("synth", "--out", tmp_path / "x") == 1


def test_synth_rejects_bad_params_json(tmp_path):
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", "{nope",
                   "--out", tmp_path / "x") == 1


def test_synth_unknown_kind(tmp_path):
    assert run_cli("synth", "--kind", "zebra", "--out", tmp_path / "x") == 1


# --- exit codes -----------------------------------------------------------


def test_unknown_command_is_config_error():
    assert run_cli("frobnicate") == 1
    assert main([]) == 1


def test_missing_config_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", label_column="label")
    assert run_cli("mce", "--config", cfg) == 1


def test_missing_dataset_file_is_data_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(tmp_path / "absent.csv"),
                    label_column="label")
    assert run_cli("mce", "--config", cfg) == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_dataset_is_data_error(tmp_path, capsys):
    (tmp_path / "d.csv").write_bytes(b"x,label\n1,a\n2,\xff\n")
    cfg = write_cfg(tmp_path / "c.json", dataset=str(tmp_path / "d.csv"), label_column="label",
                    out_dir=str(tmp_path / "out"))
    assert run_cli("mce", "--config", cfg) == 2
    assert_one_error_line(capsys, "cannot read", "can't decode byte 0xff")


def test_oversized_quoted_cell_is_data_error(tmp_path, capsys):
    # the csv module refuses a field over its 128k-character limit
    (tmp_path / "d.csv").write_text('x,label\n1,a\n2,"%s"\n' % ("b" * 200000))
    cfg = write_cfg(tmp_path / "c.json", dataset=str(tmp_path / "d.csv"), label_column="label",
                    out_dir=str(tmp_path / "out"))
    assert run_cli("mce", "--config", cfg) == 2
    assert_one_error_line(capsys, "cannot read", "field larger than field limit")


def test_invalid_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("mce", "--config", bad) == 1
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run_cli("mce", "--config", lst) == 1


def test_persistent_ties_are_computation_errors(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("f0,label\n" + "".join("0,%s\n0,%s\n" % (l, l) for l in "abc"))
    cfg = write_cfg(tmp_path / "c.json", dataset=str(data), label_column="label",
                    out_dir=str(tmp_path / "out"),
                    **{"let": {"samples_per_triplet": 5}})
    assert run_cli("let", "--config", cfg) == 3
    assert_one_error_line(capsys, "persistent distance ties while sampling labels (a, b, c)")
    assert not (tmp_path / "out").exists()


# --- per-command artifacts ------------------------------------------------


def test_mce_artifacts(tmp_path, clouds_csv):
    out = tmp_path / "mce"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(out), seed=2)
    assert run_cli("mce", "--config", cfg) == 0
    for name in ("binning_report.json", "mce_matrix.csv", "mce_groups.json",
                 "feature_rank.csv", "manifest.json"):
        assert (out / name).exists(), name
    matrix_lines = (out / "mce_matrix.csv").read_text().strip().split("\n")
    assert matrix_lines[0].startswith("feature,")
    rank_lines = (out / "feature_rank.csv").read_text().strip().split("\n")
    assert rank_lines[0] == "feature,label_to_feature,feature_to_label"
    assert len(rank_lines) == 3
    groups = read_json(out / "mce_groups.json")
    assert groups["k"] == 2
    assert sorted(f for g in groups["groups"] for f in g) == ["f0", "f1"]


def test_mce_summary_never_pairs_a_feature_with_itself(tmp_path, capsys):
    # f0, f1 and the label are pairwise independent, so every off-diagonal
    # value is 1.0, the value a diagonal of ones would tie with
    data = tmp_path / "indep.csv"
    data.write_text("f0,f1,label\n" + "".join(
        "%d,%d,%s\n" % (i % 2, (i // 2) % 2, "ab"[(i // 4) % 2]) for i in range(40)))
    cfg = write_cfg(tmp_path / "c.json", dataset=str(data), label_column="label",
                    out_dir=str(tmp_path / "out"))
    capsys.readouterr()
    assert run_cli("mce", "--config", cfg) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary in ("mce: 2 features; closest pair (f0, f1) at 1.0000",
                       "mce: 2 features; closest pair (f1, f0) at 1.0000")


def test_mce_ranks_only_the_matrix_features(tmp_path, caplog):
    rng = np.random.default_rng(4)
    n = 60
    label = np.array(list("abc"))[np.arange(n) % 3]
    data = tmp_path / "mixed.csv"
    data.write_text("f0,f1,f2,d,c,one,label\n" + "".join(
        "%.4f,%.4f,%.4f,%d,%s,x,%s\n" % (rng.normal(), rng.normal(), rng.normal(), i % 4, "pq"[i % 2], label[i])
        for i in range(n)))
    for features, skipped in ((["f0", "f1"], []), (["f0", "one", "f1"], ["one"])):
        out = tmp_path / ("out-%d" % len(features))
        cfg = write_cfg(tmp_path / "c.json", dataset=str(data), label_column="label",
                        out_dir=str(out), features=features)
        caplog.clear()
        with caplog.at_level("WARNING", logger="ceda"):
            assert run_cli("mce", "--config", cfg) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        # the ranking reads the matrix's codes: it lists the matrix's
        # features and nothing else, and a feature the matrix skips warns once
        ranked = [line.split(",")[0] for line in (out / "feature_rank.csv").read_text().splitlines()[1:]]
        assert sorted(ranked) == ["f0", "f1"]
        assert not [w for w in warnings if "needs a binning" in w]
        assert [w for w in warnings if "'one'" in w] == ["skipping degenerate feature '%s'" % name
                                                          for name in skipped]


def test_let_artifacts(tmp_path, clouds_csv):
    out = tmp_path / "let"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(out), seed=2)
    assert run_cli("let", "--config", cfg) == 0
    newick = (out / "tree.newick").read_text().strip()
    assert newick.endswith(";") and "(" in newick
    dom_lines = (out / "dominance.csv").read_text().strip().split("\n")
    assert dom_lines[0] == "x,y,z,xy,xz,yz"
    assert len(dom_lines) == 2 and dom_lines[1].startswith("a,b,c,")
    dist_lines = (out / "label_distance.csv").read_text().strip().split("\n")
    assert dist_lines[0] == "label,a,b,c"
    tree = read_json(out / "tree.json")
    assert sorted(tree["labels"]) == ["a", "b", "c"]


def test_let_dominance_rows_name_their_triples(tmp_path):
    # with "|"-joined pair names, (a, b|c) and (a|b, c) both printed a|b|c
    labels = ["a", "a|b", "b|c", "c", "c,d"]
    rng = np.random.default_rng(0)
    data = tmp_path / "labels.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f0", "f1", "label"])
        for i, lab in enumerate(labels):
            writer.writerows([x, y, lab] for x, y in rng.normal(i, 0.5, (10, 2)).tolist())
    out = tmp_path / "let"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(data), label_column="label",
                    out_dir=str(out), **{"let": {"samples_per_triplet": 25}})
    assert run_cli("let", "--config", cfg) == 0
    with open(out / "label_distance.csv", newline="") as fh:
        order = next(csv.reader(fh))[1:]
    assert sorted(order) == sorted(labels)
    with open(out / "dominance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z", "xy", "xz", "yz"]
    assert [row[:3] for row in rows[1:]] == [list(t) for t in itertools.combinations(order, 3)]
    assert all(sum(int(v) for v in row[3:]) == 25 for row in rows[1:])
    assert sorted(newick_leaves((out / "tree.newick").read_text())) == sorted(labels)


def test_let_samples_once(tmp_path, clouds_csv, monkeypatch):
    calls = []
    original = ceda.label_tree.sample_triplet_orderings

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(ceda.cli, "sample_triplet_orderings", counting)
    monkeypatch.setattr(ceda.label_tree, "sample_triplet_orderings", counting)
    out = tmp_path / "let"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(out), seed=2, **{"let": {"samples_per_triplet": 40}})
    assert run_cli("let", "--config", cfg) == 0
    assert len(calls) == 1
    (train, features), kwargs = calls[0]
    assert kwargs == {"samples_per_triplet": 40, "seed": stage_seed(2, "let")}
    monkeypatch.undo()
    tree = tree_from_training(train, features, **kwargs)
    assert read_json(out / "tree.json") == json.loads(json.dumps(tree.to_json_dict()))
    assert (out / "tree.newick").read_text() == tree.to_newick() + "\n"


def test_let_two_labels_skips_dominance(tmp_path):
    synth_out = tmp_path / "two"
    params = {"centers": [[0, 0], [5, 0]], "n_per_label": 20, "sd": 0.3}
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", json.dumps(params),
                   "--out", synth_out) == 0
    out = tmp_path / "let2"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(synth_out / "dataset.csv"),
                    label_column="label", out_dir=str(out))
    assert run_cli("let", "--config", cfg) == 0
    assert not (out / "dominance.csv").exists()
    assert not (out / "label_distance.csv").exists()
    assert (out / "tree.newick").exists()


def test_pmap_artifacts(tmp_path, clouds_csv):
    out = tmp_path / "pmap"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(out), seed=2,
                    feature_sets={"s1": ["f0", "f1"]},
                    competition={"outlier_quantile": None})
    assert run_cli("pmap", "--config", cfg) == 0
    for name in ("split_test.csv", "pmap_s1.csv", "pmap_s1.json", "pmap_s1_points.csv", "pies.json"):
        assert (out / name).exists(), name
    lines = (out / "pmap_s1.csv").read_text().strip().split("\n")
    assert lines[0] == "category,a,b,c"
    assert "points" not in read_json(out / "pmap_s1.json")
    points = (out / "pmap_s1_points.csv").read_text().strip().split("\n")
    assert points[0] == "row,true,category,stop_node,path"
    assert len(points) == len((out / "split_test.csv").read_text().strip().split("\n"))
    pies = read_json(out / "pies.json")
    assert set(pies) == {"a", "b", "c"}


def test_chain_artifacts_and_conservation(tmp_path, ortho_csv):
    cfg = ortho_cfg(tmp_path, ortho_csv, "chainout")
    assert run_cli("chain", "--config", cfg) == 0
    out = tmp_path / "chainout"
    summary = read_json(out / "chain_summary.json")
    assert summary["links"] == ["front", "back"]
    assert summary["conserved"] is True
    assert summary["depths"] == 2
    for d in (1, 2):
        assert (out / ("chain_depth%d.csv" % d)).exists()
        assert (out / ("chain_depth%d.json" % d)).exists()
    assert (out / "split_test.csv").exists()
    depth1 = read_json(out / "chain_depth1.json")
    assert depth1["links"] == ["front"]
    assert all("rows" not in cat for cat in depth1["categories"])
    rows = (out / "chain_rows.csv").read_text().strip().split("\n")
    assert rows[0] == "row,true,depth1,depth2"
    assert len(rows) == len((out / "split_test.csv").read_text().strip().split("\n"))


def test_dissect_builtin_baseline(tmp_path, ortho_csv):
    cfg = ortho_cfg(tmp_path, ortho_csv, "dis", dissect={"knn_k": 5})
    assert run_cli("dissect", "--config", cfg) == 0
    out = tmp_path / "dis"
    report = read_json(out / "dissection.json")
    assert sorted(report) == ["source", "totals"]
    assert report["source"] == "builtin-knn(k=5)"
    totals = report["totals"]
    assert set(totals) == {"certainty-coherent", "certainty-incoherent",
                           "uncertainty-coherent", "uncertainty-incoherent"}
    with open(out / "split_test.csv") as fh:
        n_test = sum(1 for _ in fh) - 1
    assert sum(totals.values()) == n_test
    base_lines = (out / "baseline_predictions.csv").read_text().strip().split("\n")
    assert base_lines[0] == "row_id,predicted_label"
    assert len(base_lines) == 1 + n_test
    dis_lines = (out / "dissection.csv").read_text().strip().split("\n")
    assert dis_lines[0] == "row,true,external,category,depth,case"


def test_dissect_external_file(tmp_path, ortho_csv):
    # first run chain to learn the split, then feed the true labels back in
    chain_cfg = ortho_cfg(tmp_path, ortho_csv, "chainsplit")
    assert run_cli("chain", "--config", chain_cfg) == 0
    with open(tmp_path / "chainsplit" / "split_test.csv") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    ext = tmp_path / "ext.csv"
    ext.write_text("row_id,predicted_label\n"
                   + "".join("%d,%s\n" % (i, l) for i, l in enumerate(labels)))
    cfg = ortho_cfg(tmp_path, ortho_csv, "disext", dissect={"external": str(ext)})
    assert run_cli("dissect", "--config", cfg) == 0
    totals = read_json(tmp_path / "disext" / "dissection.json")["totals"]
    # true labels fed back are nearly fully coherent; the odd point that
    # spuriously descends at the tied front-feature node may still land in
    # a wrong singleton, so allow a small remainder
    incoherent = totals["certainty-incoherent"] + totals["uncertainty-incoherent"]
    assert incoherent <= 2
    assert sum(totals.values()) == len(labels)
    assert not (tmp_path / "disext" / "baseline_predictions.csv").exists()


def test_dissect_unknown_external_label_is_data_error(tmp_path, ortho_csv, capsys):
    chain_cfg = ortho_cfg(tmp_path, ortho_csv, "chainsplit")
    assert run_cli("chain", "--config", chain_cfg) == 0
    with open(tmp_path / "chainsplit" / "split_test.csv") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    labels[3] = "zz"
    ext = tmp_path / "ext.csv"
    ext.write_text("row_id,predicted_label\n"
                   + "".join("%d,%s\n" % (i, l) for i, l in enumerate(labels)))
    cfg = ortho_cfg(tmp_path, ortho_csv, "disbad", dissect={"external": str(ext)})
    assert run_cli("dissect", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "'zz'" in err and "rows 3" in err
    assert not (tmp_path / "disbad").exists()


def test_dissect_external_file_lacking_rows_writes_nothing(tmp_path, ortho_csv, capsys):
    # the chain has run when the external rows are checked against the test rows
    ext = tmp_path / "ext.csv"
    ext.write_text("row_id,predicted_label\n0,a\n")
    cfg = ortho_cfg(tmp_path, ortho_csv, "dismiss", dissect={"external": str(ext)})
    assert run_cli("dissect", "--config", cfg) == 2
    assert_one_error_line(capsys, "external predictions missing rows")
    assert not (tmp_path / "dismiss").exists()


def test_report_csvs_quote_labels_with_commas(tmp_path):
    data = tmp_path / "data"
    params = {"labels": ["a,b", "c"], "centers": [[0, 0], [0.5, 0.5]], "n_per_label": 40, "sd": 0.4}
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", json.dumps(params),
                   "--seed", 3, "--out", data) == 0
    cfg = write_cfg(tmp_path / "c.json", dataset=str(data / "dataset.csv"), label_column="label",
                    seed=1, out_dir=str(tmp_path / "out"), feature_sets={"s": ["f0", "f1"]},
                    dissect={"knn_k": 5})
    assert run_cli("dissect", "--config", cfg) == 0
    assert run_cli("pmap", "--config", cfg) == 0

    def rows(name):
        with open(tmp_path / "out" / name, newline="") as fh:
            return list(csv.reader(fh))

    pmap = rows("pmap_s.csv")
    assert pmap[0] == ["category", "a,b", "c"]
    assert all(len(r) == 3 for r in pmap)
    baseline = rows("baseline_predictions.csv")
    assert {r[1] for r in baseline[1:]} <= {"a,b", "c"}
    dissection = rows("dissection.csv")
    assert all(len(r) == 6 for r in dissection)
    assert {r[1] for r in dissection[1:]} == {"a,b", "c"}
    assert [r[2] for r in dissection[1:]] == [r[1] for r in baseline[1:]]


@pytest.fixture()
def magnus_csv(tmp_path):
    out = tmp_path / "magnus"
    params = {"labels": ["a"], "n_per_label": 250, "noise_sd": 0.05}
    assert run_cli("synth", "--kind", "magnus-manifold", "--params", json.dumps(params),
                   "--seed", 2, "--out", out) == 0
    return out / "dataset.csv"


def test_rma_artifacts(tmp_path, magnus_csv, monkeypatch):
    coded = []
    code = ceda.rma.joint_response_codes
    for module in (ceda.cli, ceda.rma):
        monkeypatch.setattr(module, "joint_response_codes", lambda *args: coded.append(args) or code(*args))
    out = tmp_path / "rma"
    cfg = write_cfg(
        tmp_path / "c.json", dataset=str(magnus_csv), label_column="label",
        out_dir=str(out), seed=4,
        rma={
            "responses": ["pfx_x", "pfx_z"],
            "major_candidates": ["spin_dir", "spin_rate", "noise"],
            "majors": ["spin_dir", "spin_rate"],
            "minors": ["noise"],
            "bins_per_major": 4,
            "k_star": 8,
            "ols": {"response": "pfx_x", "covariates": ["spin_dir"], "per_label": False},
        },
    )
    assert run_cli("rma", "--config", cfg) == 0
    assert len(coded) == 1   # once per command, not once per major candidate
    for name in ("rma_scores.csv", "rma_dispersion.json", "rma_binnings.json",
                 "rma_lattice.json", "rma_minor_entropy.csv", "rma_errors.csv",
                 "rma_plotdata.csv", "rma_ols.csv", "manifest.json"):
        assert (out / name).exists(), name
    scores = (out / "rma_scores.csv").read_text().strip().split("\n")
    assert scores[0] == "feature,score,threshold,is_major"
    assert len(scores) == 4
    lattice = read_json(out / "rma_lattice.json")
    assert lattice["majors"] == ["spin_dir", "spin_rate"]
    assert all(len(c["cell"]) == 2 for c in lattice["cells"])
    plot = (out / "rma_plotdata.csv").read_text().strip().split("\n")
    assert plot[0] == "row,patch,flags,pred_pfx_x,pred_pfx_z,true_pfx_x,true_pfx_z"
    assert len(plot) == 1 + 50
    errors = (out / "rma_errors.csv").read_text().strip().split("\n")
    assert errors[0].startswith("patch,n,mse_pfx_x,mse_pfx_z,")
    assert errors[-1].startswith("ALL,50,")
    ols = (out / "rma_ols.csv").read_text().strip().split("\n")
    assert ols[0] == "label,intercept,spin_dir,residual_std_error,df"
    assert ols[1].startswith("ALL,")


def test_rma_plotdata_joins_every_flag_in_sorted_order(tmp_path):
    # at this seed u = 0..39 falls in four bins of the training rows. Test
    # rows in the third bin, which the lattice leaves out, borrow its
    # neighbours; the last bin holds 7 training rows, fewer than k* = 8;
    # u = 39 lies above every training row; and every seventh row has a
    # minor value that no other row shares, so its sieve comes up empty
    lines = ["label,u,y,g"]
    lines += ["%s,%d,%d,%s" % ("ab"[i % 2], i, i, "z%d" % i if i % 7 == 3 else "pq"[i % 2]) for i in range(40)]
    dataset = tmp_path / "flags.csv"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rma"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(dataset), label_column="label", out_dir=str(out), seed=4,
                    split={"train_fraction": 0.75},
                    rma={"responses": ["y"], "majors": ["u"], "minors": ["g"], "bins_per_major": 4,
                         "bin_subset": {"u": [0, 1, 3]}, "k_star": 8})
    assert run_cli("rma", "--config", cfg) == 0
    with open(out / "rma_plotdata.csv", newline="") as f:
        flags = [row["flags"] for row in csv.DictReader(f)]
    assert flags == ["", "", "adjacent_fallback", "adjacent_fallback", "adjacent_fallback", "adjacent_fallback",
                     "underfilled", "sieve_fallback|underfilled", "underfilled", "out_of_range|underfilled"]


def test_rma_requires_section(tmp_path, magnus_csv):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(magnus_csv), label_column="label",
                    out_dir=str(tmp_path / "x"))
    assert run_cli("rma", "--config", cfg) == 1


def refuse_scoring(monkeypatch):
    """Make scoring a major candidate fail the test: column kinds are checked first."""
    def score_major_candidate(*args, **kwargs):
        raise AssertionError("a major candidate was scored before the column kinds were checked")
    monkeypatch.setattr(ceda.cli, "score_major_candidate", score_major_candidate)


def test_rma_categorical_response_is_data_error(tmp_path, capsys, monkeypatch):
    refuse_scoring(monkeypatch)
    rng = np.random.default_rng(0)
    dataset = tmp_path / "cat.csv"
    dataset.write_text("f0,f1,label\n" + "".join(
        "%s,%.6f,%s\n" % ("uv"[i % 2], rng.normal(), "ab"[i % 3 == 0]) for i in range(60)))
    out = tmp_path / "rma"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(dataset), label_column="label", out_dir=str(out),
                    rma={"responses": ["f0"], "major_candidates": ["f1"], "threshold": 0.0})
    assert run_cli("rma", "--config", cfg) == 2
    assert_one_error_line(capsys, "'f0'")
    assert not out.exists()


@pytest.mark.parametrize("key", ["responses", "majors", "ols.response", "ols.covariates"])
def test_rma_categorical_numeric_setting_is_data_error(tmp_path, capsys, monkeypatch, key):
    # each of these settings names columns that must be numbers; here one of
    # them names c, whose values are u and v
    refuse_scoring(monkeypatch)
    rng = np.random.default_rng(1)
    dataset = tmp_path / "mixed.csv"
    dataset.write_text("f0,f1,f2,c,label\n" + "".join(
        "%.6f,%.6f,%.6f,%s,%s\n" % (*rng.normal(size=3), "uv"[i % 2], "ab"[i % 3 == 0]) for i in range(90)))
    rma = {"responses": ["f0"], "major_candidates": ["f1"], "majors": ["f1"], "threshold": 0.0,
           "ols": {"response": "f2", "covariates": ["f1"]}}
    section, _, field = ("rma." + key).rpartition(".")
    target = rma["ols"] if section == "rma.ols" else rma
    target[field] = "c" if field == "response" else ["c"]
    out = tmp_path / "rma"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(dataset), label_column="label", out_dir=str(out), rma=rma)
    assert run_cli("rma", "--config", cfg) == 2
    assert_one_error_line(capsys, "rma.%s" % key, "'c'")
    assert not out.exists()


@pytest.mark.parametrize("key", ["responses", "major_candidates", "majors", "minors"])
def test_rma_repeated_feature_is_config_error(request, tmp_path, capsys, monkeypatch, key):
    # a name given twice would reach the cell grid as two code columns
    # under one key; it is refused before any candidate is scored
    refuse_scoring(monkeypatch)
    value = {"responses": ["pfx_x", "pfx_x"], "major_candidates": ["spin_dir", "spin_dir", "spin_rate"],
             "majors": ["spin_dir", "spin_dir"], "minors": ["noise", "noise"]}[key]
    assert run_with_config_value(request, tmp_path, "rma", "rma." + key, value) == 1
    assert_one_error_line(capsys, "rma.%s repeats the feature '%s'" % (key, value[0]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [3, None, "0"])
def test_rma_bin_subset_member_must_be_a_list(request, tmp_path, capsys, value):
    assert run_with_config_value(request, tmp_path, "rma", "rma.bin_subset", {"spin_dir": value}) == 1
    assert_one_error_line(capsys, "rma.bin_subset.spin_dir must be a list, got %r" % value)
    assert not (tmp_path / "out").exists()


# --- manifest and reproducibility ----------------------------------------


def test_manifest_hashes_effective_config(tmp_path):
    out = tmp_path / "m"
    cfg_path = write_cfg(
        tmp_path / "c.json", seed=6, out_dir=str(out),
        synth={"kind": "gauss-clouds",
               "params": {"centers": [[0, 0], [3, 3]], "n_per_label": 10}},
    )
    assert run_cli("synth", "--config", cfg_path) == 0
    manifest = read_json(out / "manifest.json")
    canonical = json.dumps(json.loads(cfg_path.read_text()),
                           sort_keys=True, separators=(",", ":"))
    assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert manifest["seed"] == 6


def test_cli_seed_overrides_config(tmp_path):
    out = tmp_path / "m"
    cfg_path = write_cfg(
        tmp_path / "c.json", seed=6, out_dir=str(out),
        synth={"kind": "gauss-clouds",
               "params": {"centers": [[0, 0], [3, 3]], "n_per_label": 10}},
    )
    assert run_cli("synth", "--config", cfg_path, "--seed", 9) == 0
    assert read_json(out / "manifest.json")["seed"] == 9


def test_rerun_is_byte_identical_except_timestamp(tmp_path, ortho_csv):
    cfg = ortho_cfg(tmp_path, ortho_csv, "repro")
    out = tmp_path / "repro"
    assert run_cli("chain", "--config", cfg) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("chain", "--config", cfg) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == set(after)
    for name in before:
        if name == "manifest.json":
            a, b = json.loads(before[name]), json.loads(after[name])
            a.pop("timestamp"), b.pop("timestamp")
            assert a == b
        else:
            assert before[name] == after[name], name


def test_split_is_shared_across_commands(tmp_path, ortho_csv):
    chain_cfg = ortho_cfg(tmp_path, ortho_csv, "sp1")
    dis_cfg = ortho_cfg(tmp_path, ortho_csv, "sp2", dissect={"knn_k": 5})
    assert run_cli("chain", "--config", chain_cfg) == 0
    assert run_cli("dissect", "--config", dis_cfg) == 0
    a = (tmp_path / "sp1" / "split_test.csv").read_bytes()
    b = (tmp_path / "sp2" / "split_test.csv").read_bytes()
    assert a == b


def test_threads_never_change_results(tmp_path, clouds_csv):
    base = dict(dataset=str(clouds_csv), label_column="label", seed=2,
                feature_sets={"s1": ["f0", "f1"]},
                competition={"outlier_quantile": None})
    cfg1 = write_cfg(tmp_path / "c1.json", out_dir=str(tmp_path / "t1"), **base)
    cfg4 = write_cfg(tmp_path / "c4.json", out_dir=str(tmp_path / "t4"), **base)
    assert run_cli("pmap", "--config", cfg1, "--threads", 1) == 0
    assert run_cli("pmap", "--config", cfg4, "--threads", 4) == 0
    for name in ("pmap_s1.csv", "pmap_s1.json", "pies.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes()


def test_unknown_config_keys_warn(tmp_path, clouds_csv, caplog):
    base = dict(dataset=str(clouds_csv), label_column="label", seed=2,
                feature_sets={"s1": ["f0", "f1"]})
    clean = write_cfg(tmp_path / "clean.json", out_dir=str(tmp_path / "a"), **base)
    with caplog.at_level("WARNING", logger="ceda"):
        assert run_cli("let", "--config", clean) == 0
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    typos = write_cfg(tmp_path / "typos.json", out_dir=str(tmp_path / "b"), feature_set="s1",
                      split={"train_frac": 0.5}, competition={"kstar": 3},
                      rma={"respones": [], "ols": {"per_labl": True}}, **base)
    caplog.clear()
    with caplog.at_level("WARNING", logger="ceda"):
        assert run_cli("let", "--config", typos) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 5
    top, split, competition, rma, ols = warnings
    assert "top level" in top and "feature_set" in top and "feature_sets" in top
    assert "section 'split'" in split and "train_frac" in split
    assert "known keys: stratified, train_fraction" in split
    assert "kstar" in competition and "k_star" in competition
    assert "respones" in rma and "responses" in rma
    assert "rma.ols" in ols and "per_labl" in ols and "known keys: covariates, per_label, response" in ols


def test_chain_entry_typos_warn(tmp_path, clouds_csv, caplog):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label", seed=2,
                    out_dir=str(tmp_path / "out"), feature_sets={"s1": ["f0", "f1"]},
                    chain=[{"set": "s1", "sets": "s1", "competition": {"k_sta": 5}}])
    with caplog.at_level("WARNING", logger="ceda"):
        assert run_cli("chain", "--config", cfg) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 2
    entry, override = warnings
    assert "chain[0]:" in entry and "sets" in entry and "known keys: competition, set" in entry
    assert "chain[0].competition" in override and "k_sta" in override and "k_star" in override


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "Traceback" not in err
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("command", ["pmap", "chain", "dissect"])
@pytest.mark.parametrize("field,value", [("k_star", 20.0), ("k_star", "20"), ("pl_upper", "2")])
def test_mistyped_competition_fields_are_config_errors(tmp_path, clouds_csv, capsys, command, field, value):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(tmp_path / "out"), competition={field: value})
    assert run_cli(command, "--config", cfg) == 1
    assert_one_error_line(capsys, "competition.%s" % field, repr(value))


@pytest.mark.parametrize("competition,override,message", [
    ({}, {"k_star": 0}, "chain[1].competition.k_star must be >= 1"),
    ({}, {"k_star": "5"}, "chain[1].competition.k_star must be an integer, got '5'"),
    ({"pl_lower": 0.5}, {"pl_upper": 0.9}, "chain[1].competition.pl_lower and pl_upper must satisfy"),
    ({"k_star": 0}, {"pl_upper": 2.0}, "error: competition.k_star must be >= 1"),
    ({"k_star": 0}, None, "error: competition.k_star must be >= 1"),
])
def test_bad_chain_link_overrides_name_the_link(tmp_path, clouds_csv, capsys, competition, override, message):
    link = {"set": "s1"} if override is None else {"set": "s1", "competition": override}
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(tmp_path / "out"), feature_sets={"s1": ["f0", "f1"]},
                    competition=competition, chain=["s1", link])
    assert run_cli("chain", "--config", cfg) == 1
    assert_one_error_line(capsys, message)


RMA_SECTION = {"responses": ["pfx_x", "pfx_z"], "major_candidates": ["spin_dir", "spin_rate"],
               "majors": ["spin_dir", "spin_rate"]}


def run_with_config_value(request, tmp_path, command, path, value):
    """Run command with value set at the dotted config path; its exit code."""
    dataset = request.getfixturevalue("magnus_csv" if command == "rma" else "clouds_csv")
    cfg = {"dataset": str(dataset), "label_column": "label", "out_dir": str(tmp_path / "out")}
    if command == "rma":
        cfg["rma"] = dict(RMA_SECTION, ols={"response": "pfx_x", "covariates": ["spin_dir"]})
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return run_cli(command, "--config", write_cfg(tmp_path / "c.json", **cfg))


@pytest.mark.parametrize("command,section,key", [
    ("let", "let", "samples_per_triplet"), ("pmap", "split", "train_fraction"), ("dissect", "dissect", "knn_k"),
    ("mce", "mce", "k_groups"), ("rma", "rma", "k_star"), ("rma", "rma", "threshold"),
    ("rma", "rma", "bins_per_major"), ("pmap", None, "seed"), ("mce", "binning", "target_bins"),
    ("mce", "binning", "per_feature.f0"), ("mce", "binning", "per_feature")])
@pytest.mark.parametrize("value", ["many", True])
def test_mistyped_numeric_config_values_are_config_errors(request, tmp_path, capsys, command, section, key, value):
    path = key if section is None else "%s.%s" % (section, key)
    assert run_with_config_value(request, tmp_path, command, path, value) == 1
    assert_one_error_line(capsys, "%s must be a" % path, repr(value))


@pytest.mark.parametrize("seed", [1.7, -1])
def test_seed_must_be_a_non_negative_integer(request, tmp_path, capsys, seed):
    assert run_with_config_value(request, tmp_path, "pmap", "seed", seed) == 1
    assert_one_error_line(capsys, "seed must be a", repr(seed))


@pytest.mark.parametrize("command,path,value", [
    ("mce", "binning.target_bins", 0), ("mce", "binning.per_feature.f0", -2), ("mce", "mce.k_groups", 0),
    ("let", "let.samples_per_triplet", 0), ("let", "let.samples_per_triplet", 100_001),
    ("dissect", "dissect.knn_k", 0), ("rma", "rma.k_star", 0), ("rma", "rma.bins_per_major", 0),
    ("rma", "rma.bins_per_major", -1), ("pmap", "seed", -1)])
def test_out_of_range_config_values_are_config_errors(request, tmp_path, capsys, command, path, value):
    assert run_with_config_value(request, tmp_path, command, path, value) == 1
    assert_one_error_line(capsys, "%s must be an integer " % path, "got %r" % value)


@pytest.mark.parametrize("path,value", [
    ("rma.ols.response", "nope"), ("rma.ols.covariates", ["spin_dir", "nope"]), ("mce.k_groups", 9),
    ("rma.threshold", 0.999), ("rma.bin_subset", {"spin_dir": [99]}), ("binning.per_feature", {"f9": 4})])
def test_config_values_the_data_rules_out_fail_before_any_artifact(request, tmp_path, capsys, monkeypatch,
                                                                   path, value):
    # an ols feature the dataset lacks, more groups than the two usable
    # features of clouds_csv, a threshold that no candidate of magnus_csv
    # reaches when no majors are pinned, a bin that spin_dir lacks, or a
    # per-feature bin count for a column clouds_csv lacks
    code, *needles = {
        "rma.ols.response": (1, path, "unknown feature 'nope'"),
        "rma.ols.covariates": (1, path, "unknown feature 'nope'"),
        "mce.k_groups": (1, "mce.k_groups must be an integer in [1, 2], the usable feature count, got 9"),
        "rma.threshold": (2, "no candidate reached the major-feature threshold 0.999"),
        "rma.bin_subset": (1, "bin_subset['spin_dir'] holds bin id 99"),
        "binning.per_feature": (1, "binning.per_feature.f9: unknown feature 'f9'"),
    }[path]
    if path == "rma.threshold":
        monkeypatch.delitem(RMA_SECTION, "majors")
    command = "mce" if path.startswith("binning.") else path.split(".")[0]
    assert run_with_config_value(request, tmp_path, command, path, value) == code
    assert_one_error_line(capsys, *needles)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,kind", [
    ("label", "the label column"), ("count", "discrete"), ("zone", "categorical")])
def test_per_feature_bins_for_a_column_that_is_never_binned_are_config_errors(tmp_path, capsys, name, kind):
    # count has three distinct values, so the loader infers it discrete
    rng = np.random.default_rng(0)
    rows = ["x,count,zone,label"] + ["%r,%d,%s,%s" % (rng.normal(), i % 3, "pq"[i % 2], "ab"[i % 2])
                                     for i in range(40)]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path / "c.json", dataset=str(tmp_path / "d.csv"), label_column="label",
                    out_dir=str(tmp_path / "out"), binning={"per_feature": {"x": 4, name: 4}})
    assert run_cli("mce", "--config", cfg) == 1
    assert_one_error_line(capsys, "binning.per_feature.%s: '%s' is %s; only continuous columns are binned"
                          % (name, name, kind))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,path,value", [
    ("mce", "features", ["f0", "f0", "f1"]), ("pmap", "feature_sets.a", ["f0", "f0"]),
    ("let", "feature_sets.a", ["f0", "f1", "f0"]), ("chain", "feature_sets.a", ["f1", "f1"]),
    ("rma", "rma.ols.covariates", ["spin_dir", "spin_rate", "spin_dir"])])
def test_a_feature_named_twice_in_one_list_is_a_config_error(request, tmp_path, capsys, command, path, value):
    # a repeated name would count its feature twice in every distance, or
    # pair it with itself in the mce matrix
    assert run_with_config_value(request, tmp_path, command, path, value) == 1
    assert_one_error_line(capsys, "%s repeats the feature '%s'" % (path, value[0]))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under_a_file,reason", [(False, errno.EEXIST), (True, errno.ENOTDIR)],
                         ids=["a-file", "under-a-file"])
def test_an_out_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys, under_a_file, reason):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under_a_file else blocker
    assert run_cli("synth", "--kind", "gauss-clouds", "--params", '{"centers": [[0, 0], [3, 0]]}',
                   "--out", out) == 1
    assert_one_error_line(capsys, "out_dir %s" % out, os.strerror(reason))
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", sorted(ceda.cli.COMMANDS))
def test_manifest_lists_every_file_written_and_the_summary_comes_last(request, tmp_path, capsys, caplog, command):
    out = tmp_path / "out"
    if command == "synth":
        argv = ["--kind", "gauss-clouds", "--params", '{"centers": [[0, 0], [3, 0]]}']
    elif command in ("chain", "dissect"):
        argv = ["--config", ortho_cfg(tmp_path, request.getfixturevalue("ortho_csv"), "out")]
    else:
        dataset = request.getfixturevalue("magnus_csv" if command == "rma" else "clouds_csv")
        argv = ["--config", write_cfg(tmp_path / "c.json", dataset=str(dataset), label_column="label",
                                      **({"rma": RMA_SECTION} if command == "rma" else {}))]
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="ceda")
    # the log's "wrote" lines go to stdout too, so the order of the two shows
    handler = logging.StreamHandler(sys.stdout)
    logging.getLogger("ceda").addHandler(handler)
    try:
        assert run_cli(command, *argv, "--out", out) == 0
    finally:
        logging.getLogger("ceda").removeHandler(handler)
    artifacts = read_json(out / "manifest.json")["artifacts"]
    assert artifacts == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    *wrote, manifest, summary = capsys.readouterr().out.splitlines()
    assert sorted(wrote) == ["wrote %s" % (out / name) for name in artifacts]
    assert manifest == "wrote %s" % (out / "manifest.json")
    assert summary.startswith(command + ": ")


def test_running_out_of_memory_is_a_computation_error(monkeypatch, capsys):
    def exhausted(args, cfg, run):
        raise MemoryError

    monkeypatch.setitem(ceda.cli.COMMANDS, "mce", exhausted)
    assert run_cli("mce") == 3
    assert_one_error_line(capsys, "out of memory")


@pytest.mark.parametrize("command", ["mce", "pmap"])
def test_a_column_whose_spread_overflows_is_a_data_error(tmp_path, capsys, command):
    # |f0| near 1e307: its sd overflows to inf, which wrote "sd": Infinity
    # into binning_report.json and z-scored every f0 value to 0.0
    rows = [["f0", "f1", "label"]]
    rows += [[repr((-1) ** i * (1000 + i) * 1e304), i, "abc"[i % 3]] for i in range(60)]
    dataset = tmp_path / "wide.csv"
    dataset.write_text("\n".join(",".join(map(str, row)) for row in rows) + "\n")
    cfg = write_cfg(tmp_path / "c.json", dataset=str(dataset), label_column="label")
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
    assert_one_error_line(capsys, "'f0'", "not finite")
    assert not (tmp_path / "out").exists()


def test_a_report_holding_nan_is_a_computation_error(tmp_path, monkeypatch, capsys):
    def nan_report(args, cfg, run):
        run.write_json("bad.json", {"value": float("nan")})
        return "never printed"

    monkeypatch.setitem(ceda.cli.COMMANDS, "mce", nan_report)
    assert run_cli("mce", "--out", tmp_path / "out") == 3
    assert_one_error_line(capsys, "bad.json", "JSON compliant")
    assert not (tmp_path / "out").exists()


def test_readme_config_table_matches_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format")[1].split("\n### ")[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
    table = {key.strip().strip("`"): [cell.strip() for cell in cells] for key, *cells in rows}
    assert list(table) == list(SETTINGS)
    kinds = {int: "integer", float: "number", bool: "boolean", str: "string", list: "list", dict: "object"}
    for path, (kind, default, bounds) in SETTINGS.items():
        kind_cell, default_cell, range_cell = table[path]
        assert kind_cell == kinds[kind], path
        # a None default is worked out from the data and described in words
        if default is not None:
            assert default_cell == ("required" if default is REQUIRED else "`%s`" % json.dumps(default)), path
        if bounds:
            low, high = bounds
            assert range_cell == ("`>= %d`" % low if high is None else "`[%d, %d]`" % bounds), path
        else:
            # a range that CompetitionConfig or SplitSpec checks is marked
            assert range_cell == "—" or range_cell.endswith("†"), path


@pytest.mark.parametrize("command,path,value,message", [
    ("pmap", "split.stratified", "false", "split.stratified must be true or false, got 'false'"),
    ("rma", "rma.ols.per_label", "no", "rma.ols.per_label must be true or false, got 'no'"),
    ("mce", "dataset", 0, "dataset must be a string, got 0"),
    ("mce", "label_column", ["label"], "label_column must be a string, got ['label']"),
    ("mce", "out_dir", 5, "out_dir must be a string, got 5"),
    ("dissect", "dissect.external", 1, "dissect.external must be a string, got 1"),
    ("let", "let.feature_set", ["all"], "let.feature_set must be a string, got ['all']"),
    ("pmap", "pmap.feature_set", ["all"], "pmap.feature_set must be a string, got ['all']"),
    ("mce", "features", "f0", "features must be a list, got 'f0'"),
    ("pmap", "feature_sets.a", "f0", "feature_sets.a must be a list, got 'f0'"),
    ("mce", "schema", ["f0"], "schema must be an object, got ['f0']"),
    ("chain", "chain", "a", "chain must be a list, got 'a'"),
    ("chain", "chain", [{"set": ["a"]}], "chain[0].set must be a string, got ['a']"),
    ("rma", "rma.responses", "pfx_x", "rma.responses must be a list, got 'pfx_x'"),
    ("rma", "rma.major_candidates", "spin_dir", "rma.major_candidates must be a list, got 'spin_dir'"),
    ("rma", "rma.majors", "spin_dir", "rma.majors must be a list, got 'spin_dir'"),
    ("rma", "rma.minors", "noise", "rma.minors must be a list, got 'noise'"),
    ("rma", "rma.ols.covariates", "spin_dir", "rma.ols.covariates must be a list, got 'spin_dir'"),
])
def test_config_values_of_the_wrong_kind_are_config_errors(request, tmp_path, capsys, command, path, value, message):
    assert run_with_config_value(request, tmp_path, command, path, value) == 1
    assert_one_error_line(capsys, message)


@pytest.mark.parametrize("kind,params,message", [
    ("gauss-clouds", [1, 2], "--params must be an object, got [1, 2]"),
    ("gauss-clouds", {"centers": [[0], [3]], "n_per_label": "many"},
     "synth.params.n_per_label must be an integer, got 'many'"),
    ("gauss-clouds", {"centers": [[0], [3]], "n_per_label": [20, 2.5]},
     "synth.params.n_per_label must be an integer, got 2.5"),
    ("gauss-clouds", {"centers": [[0], [3]], "sd": [1, None]}, "synth.params.sd must be a number, got None"),
    ("gauss-clouds", {"centers": [[0, "x"], [3, 0]]}, "synth.params.centers must be a number, got 'x'"),
    ("gauss-clouds", {"centers": [5, 6]}, "synth.params.centers must be a list, got 5"),
    ("gauss-clouds", {"centers": [[0, 0], [3, 0]], "feature_names": ["x"]},
     "feature_names must give one name per center coordinate"),
    ("magnus-manifold", {"a": "big"}, "synth.params.a must be a number, got 'big'"),
    ("magnus-manifold", {"n_labels": 0}, "at least one label"),
    ("magnus-manifold", {"spin_rate_range": 1},
     "synth.params.spin_rate_range must be a list of 2 numbers, got 1"),
    ("magnus-manifold", {"labels": ["a"], "label_arcs": [[0, "pi"]]},
     "synth.params.label_arcs must be a number, got 'pi'"),
    ("magnus-manifold", {"labels": 3}, "synth.params.labels must be a list, got 3"),
    ("linear-speed", {"labels": ["a"], "coefs": [[1, 2]]}, "synth.params.coefs must be a list of 3 numbers"),
    ("linear-speed", {"noise_sd": True}, "synth.params.noise_sd must be a number, got True"),
    ("gauss-clouds", {"centers": [[0, 0], [1, 1]], "labels": ["a", "a"]},
     "synth.params.labels repeats the label 'a'"),
    ("magnus-manifold", {"labels": ["a", "a", "b"]}, "synth.params.labels repeats the label 'a'"),
    ("linear-speed", {"labels": ["a", "a", "b"]}, "synth.params.labels repeats the label 'a'"),
    ("linear-speed", {"labels": ["1", 1]}, "synth.params.labels repeats the label '1'"),
])
def test_malformed_synth_params_are_config_errors(tmp_path, capsys, kind, params, message):
    assert run_cli("synth", "--kind", kind, "--params", json.dumps(params), "--out", tmp_path / "x") == 1
    assert_one_error_line(capsys, message)


@pytest.mark.parametrize("synth,message", [
    ({"kind": "gauss-clouds", "params": [1]}, "synth.params must be an object, got [1]"),
    ({"kind": 5}, "synth.kind must be a string, got 5"),
])
def test_malformed_synth_section_is_config_error(tmp_path, capsys, synth, message):
    cfg = write_cfg(tmp_path / "c.json", out_dir=str(tmp_path / "out"), synth=synth)
    assert run_cli("synth", "--config", cfg) == 1
    assert_one_error_line(capsys, message)


@pytest.mark.parametrize("section,value", [("competition", 5), ("split", [1]), ("let", "x"), ("rma", None)])
def test_sections_that_are_not_objects_are_config_errors(tmp_path, clouds_csv, capsys, section, value):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(tmp_path / "out"), **{section: value})
    assert run_cli("pmap", "--config", cfg) == 1
    assert_one_error_line(capsys, "section '%s' must be an object" % section)


@pytest.mark.parametrize("missing", ["response", "covariates"])
def test_incomplete_rma_ols_section_is_config_error(tmp_path, magnus_csv, capsys, missing):
    ols = {"response": "pfx_x", "covariates": ["spin_dir"]}
    del ols[missing]
    cfg = write_cfg(tmp_path / "c.json", dataset=str(magnus_csv), label_column="label",
                    out_dir=str(tmp_path / "out"),
                    rma={"responses": ["pfx_x", "pfx_z"], "majors": ["spin_dir", "spin_rate"], "ols": ols})
    assert run_cli("rma", "--config", cfg) == 1
    assert_one_error_line(capsys, "rma.ols", "'%s'" % missing)


# --- stage seeds ----------------------------------------------------------


def test_stage_offsets_frozen():
    assert STAGE_OFFSETS == {"synth": 0, "split": 1, "let": 2, "pmap": 3,
                             "chain": 4, "dissect": 5, "rma": 6}


def test_stage_seed_derivation():
    expect = int(np.random.SeedSequence([3, STAGE_OFFSETS["let"]]).generate_state(1)[0])
    assert stage_seed(3, "let") == expect
    seeds = {stage_seed(3, s) for s in STAGE_OFFSETS}
    assert len(seeds) == len(STAGE_OFFSETS)
    assert stage_seed(3, "let") != stage_seed(4, "let")


def run_fresh(code, *args):
    """Standard output of code run in a fresh interpreter that imports this ceda."""
    src = str(Path(ceda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def modules_loaded_by_cli_import(prefix):
    """Names starting with prefix in sys.modules of a fresh interpreter after
    ``import ceda.cli``."""
    code = "import sys, ceda.cli; print(sorted(m for m in sys.modules if m.startswith(%r)))" % prefix
    return run_fresh(code).strip()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time of ceda.cli, and no command needs it
    assert modules_loaded_by_cli_import("scipy.stats") == "[]"


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # no command needs it, and importing scipy.special costs about 0.28 s
    assert modules_loaded_by_cli_import("scipy.special") == "[]"


def test_importing_the_cli_leaves_scipy_spatial_unloaded():
    # only a one- or two-feature node needs the KD tree, for its k-nearest
    # and outlier screens, and importing scipy.spatial costs about 0.16 s
    assert modules_loaded_by_cli_import("scipy.spatial") == "[]"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the triple sampler registers its seed wrapper with numpy.random only
    # when it first runs; importing numpy.random costs about 11 ms of setup
    assert modules_loaded_by_cli_import("numpy.random") == "[]"


SCIPY_PER_COMMAND = """
import json, sys
from ceda.cli import main

loaded = {}
for name, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, name
    loaded[name] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.dumps(loaded))
"""


def test_only_a_two_feature_pmap_loads_scipy(tmp_path):
    # numpy serves every command; scipy.spatial's KD tree serves the k-nearest
    # and outlier screens of a one- or two-feature node. The commands run in
    # one fresh interpreter, in this order, so each sees only what the earlier
    # ones loaded
    clouds3 = json.dumps({"centers": [[0, 0, 0], [3, 0, 0], [0, 3, 0]], "n_per_label": 30})
    clouds2 = json.dumps({"centers": [[0, 0], [3, 0], [0, 3]], "n_per_label": 30})

    def cfg(name, dataset, **extra):
        return str(write_cfg(tmp_path / (name + ".json"), dataset=str(tmp_path / dataset / "dataset.csv"),
                             label_column="label", out_dir=str(tmp_path / name), **extra))

    rma = {"responses": ["pfx_x", "pfx_z"], "majors": ["spin_dir", "spin_rate"],
           "ols": {"response": "pfx_x", "covariates": ["spin_dir", "spin_rate"]}}
    steps = [
        ("synth", ["synth", "--kind", "gauss-clouds", "--params", clouds3, "--out", str(tmp_path / "s3")]),
        ("mce", ["mce", "--config", cfg("mce", "s3")]),
        ("let", ["let", "--config", cfg("let", "s3", let={"samples_per_triplet": 20})]),
        ("pmap3", ["pmap", "--config", cfg("pmap3", "s3")]),
        ("synth_magnus", ["synth", "--kind", "magnus-manifold", "--params", json.dumps({"n_per_label": 60}),
                          "--out", str(tmp_path / "mag")]),
        ("rma", ["rma", "--config", cfg("rma", "mag", rma=rma)]),
        ("synth2", ["synth", "--kind", "gauss-clouds", "--params", clouds2, "--out", str(tmp_path / "s2")]),
        ("pmap2", ["pmap", "--config", cfg("pmap2", "s2")]),
    ]
    loaded = json.loads(run_fresh(SCIPY_PER_COMMAND, json.dumps(steps)).splitlines()[-1])
    assert {name: loaded[name] for name, _ in steps[:-1]} == {name: [] for name, _ in steps[:-1]}
    assert "scipy.spatial" in loaded["pmap2"]
    assert (tmp_path / "rma" / "rma_ols.csv").exists()
