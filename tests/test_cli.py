"""End-to-end command line runs: artifacts, exit codes, reproducibility."""

import csv
import hashlib
import json

import numpy as np
import pytest

from ceda.cli import STAGE_OFFSETS, main, stage_seed


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


def test_invalid_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("mce", "--config", bad) == 1
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert run_cli("mce", "--config", lst) == 1


def test_persistent_ties_are_computation_errors(tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("f0,label\n" + "".join("0,%s\n0,%s\n" % (l, l) for l in "abc"))
    cfg = write_cfg(tmp_path / "c.json", dataset=str(data), label_column="label",
                    out_dir=str(tmp_path / "out"),
                    **{"let": {"samples_per_triplet": 5}})
    assert run_cli("let", "--config", cfg) == 3


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


def test_let_artifacts(tmp_path, clouds_csv):
    out = tmp_path / "let"
    cfg = write_cfg(tmp_path / "c.json", dataset=str(clouds_csv), label_column="label",
                    out_dir=str(out), seed=2)
    assert run_cli("let", "--config", cfg) == 0
    newick = (out / "tree.newick").read_text().strip()
    assert newick.endswith(";") and "(" in newick
    dom_lines = (out / "dominance.csv").read_text().strip().split("\n")
    assert dom_lines[0].startswith("dominated\\dominator,")
    dist_lines = (out / "label_distance.csv").read_text().strip().split("\n")
    assert dist_lines[0] == "label,a,b,c"
    tree = read_json(out / "tree.json")
    assert sorted(tree["labels"]) == ["a", "b", "c"]


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
    for name in ("split_test.csv", "pmap_s1.csv", "pmap_s1.json", "pies.json"):
        assert (out / name).exists(), name
    lines = (out / "pmap_s1.csv").read_text().strip().split("\n")
    assert lines[0] == "category,a,b,c"
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


def test_dissect_builtin_baseline(tmp_path, ortho_csv):
    cfg = ortho_cfg(tmp_path, ortho_csv, "dis", dissect={"knn_k": 5})
    assert run_cli("dissect", "--config", cfg) == 0
    out = tmp_path / "dis"
    report = read_json(out / "dissection.json")
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
    assert not (tmp_path / "disbad" / "dissection.csv").exists()


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


def test_rma_artifacts(tmp_path, magnus_csv):
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


def test_rma_requires_section(tmp_path, magnus_csv):
    cfg = write_cfg(tmp_path / "c.json", dataset=str(magnus_csv), label_column="label",
                    out_dir=str(tmp_path / "x"))
    assert run_cli("rma", "--config", cfg) == 1


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
                      split={"train_frac": 0.5}, competition={"kstar": 3}, rma={"respones": []},
                      **base)
    caplog.clear()
    with caplog.at_level("WARNING", logger="ceda"):
        assert run_cli("let", "--config", typos) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 4
    top, split, competition, rma = warnings
    assert "top level" in top and "feature_set" in top and "feature_sets" in top
    assert "section 'split'" in split and "train_frac" in split
    assert "known keys: stratified, train_fraction" in split
    assert "kstar" in competition and "k_star" in competition
    assert "respones" in rma and "responses" in rma


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
