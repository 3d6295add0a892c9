"""Golden-artifact gate: the README walkthrough on a small fixed config must
write byte-identical reports across code versions.

Each command writes into its own out_dir, and every artifact except
manifest.json (which carries a timestamp and a hash of the absolute config
paths) is compared by SHA-256 against the digests recorded below.  A change
that moves any of these digests must say in CHANGES.md which artifact moved
and why, and record the new digest here.
"""

import hashlib
import json

import pytest

from ceda.cli import main

SYNTH = {
    "kind": "magnus-manifold",
    "params": {
        "labels": ["a", "b", "c", "d"],
        "n_per_label": 60,
        "noise_sd": 0.05,
        "label_offset_scale": 0.3,
        "label_arcs": [[0, 2], [1.5, 3.5], [3, 5], [4.5, 6.2]],
    },
}

RUN = {
    "label_column": "label",
    "seed": 5,
    "feature_sets": {"kin": ["spin_dir", "spin_rate"], "loc": ["pfx_x", "pfx_z"]},
    "competition": {"k_star": 10, "outlier_quantile": 0.99},
    "let": {"samples_per_triplet": 50},
    "chain": ["kin", "loc"],
    "dissect": {"knn_k": 7},
    "rma": {
        "responses": ["pfx_x", "pfx_z"],
        "major_candidates": ["spin_dir", "spin_rate", "noise"],
        "minors": ["noise"],
        "bins_per_major": 4,
        "k_star": 10,
        "ols": {"response": "pfx_x", "covariates": ["spin_dir"], "per_label": True},
    },
}

COMMANDS = ("mce", "let", "pmap", "chain", "dissect", "rma")

GOLDEN = {
    "chain/chain_depth1.csv": "24ebbb7995195e0531bcd5687e907ad5e3e0f2a15f266a2f74cd06ffc6740eb9",
    "chain/chain_depth1.json": "67e2b10b66c900dff3e8902fc2aef88e47ba776e01c82782bc856e3c72f41d9a",
    "chain/chain_depth2.csv": "6c1bf7a0452b8323e6f81e9d83defe11e46dd243b62f8d4901195dac07ac32ea",
    "chain/chain_depth2.json": "208d6bda54c7a81a7d39282a522d2d5012096ef80227d8f2c904a603b4714432",
    "chain/chain_summary.json": "8de0c28364df831dd3990ee5bffd798d4f629579261f8bdbbabf00206e61f17c",
    "chain/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "dissect/baseline_predictions.csv": "337823a62e333010fc5b8944e7b7942e47e9ee8a403e6718e483d381ca672ced",
    "dissect/dissection.csv": "16893d15d34244e84c2c772a98ad8e8ead15b09b58c160d7cbd7bd963de717af",
    "dissect/dissection.json": "a6416eb1f06179f3fbfbf56c96ef3aaf3ed8eab8f8322f13694e7ed1cbe486ca",
    "dissect/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "let/dominance.csv": "68a2cd563c9770844d650fe37cd74f205244fa94277bbaefb7e5b4a6d1d3803a",
    "let/label_distance.csv": "12232aa284127372c6360ac3097fe5bc06cd2b7aed52c55fcdbb220f5f52c152",
    "let/tree.json": "c15e2b3302f5444fd5adebe99d33cd36065212d5e45a05f2b4d0fe17669662e5",
    "let/tree.newick": "c687abda5b6370f27bea0a12c85b4f0cf82d62712b468f1d39121fbd0b414e97",
    "mce/binning_report.json": "fc35392ba4330d81b10d4ff4524cdf5e75a6c50a745daf2d6a49ab37747de0e1",
    "mce/feature_rank.csv": "cea79cb1e2c0a011e63f32eff51609cb800e7d88723fec6062490c6e802e4e56",
    "mce/mce_groups.json": "1c0f59cdaa0cb981ef4baed02ceef5c75b8baa8d09184661ffd4f91cf86a0679",
    "mce/mce_matrix.csv": "42bd3f529dfda9e9ed2972d7db4448cc9efb53af65b888dc2278f75c873204b3",
    "pmap/pies.json": "598ff358851891b472e0b6610e3616eacccc71a4c4a62372b32d6ec5578e53e0",
    "pmap/pmap_kin.csv": "24ebbb7995195e0531bcd5687e907ad5e3e0f2a15f266a2f74cd06ffc6740eb9",
    "pmap/pmap_kin.json": "d35b4b7dc13e46ff3b7aa2f9fdf614319c245cb03b9ee8257aff1f9cb35c8a53",
    "pmap/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "rma/rma_binnings.json": "16ffb9c6d5814f79c9f47bb04665d8fb9b740a9832a56ac92d8ba01f3f5fccf9",
    "rma/rma_dispersion.json": "3747fc99a49f8d358b8129e9cc61967bc263792d7926df307bb04558e82dc59c",
    "rma/rma_errors.csv": "7683b24776625697cb9834a86b75e7d5b19fe2033bc697f818d9076a078872ae",
    "rma/rma_lattice.json": "7c66658b7e783e2260a27823297d54e0322acd6a62b84df27aeade2ff961aa09",
    "rma/rma_minor_entropy.csv": "2b0bef801114d9c9b4a63a18db0d40d454003ee72be9b59d7a56811403285da3",
    "rma/rma_ols.csv": "a5421705792e6b2332fe537638e6c5fbe4d79d88598452b4e26b1b0f951c26bd",
    "rma/rma_plotdata.csv": "40a0e33588097ec7fa82feb245ffcab07c3a33fcd2304a65733026fba6fe1b29",
    "rma/rma_scores.csv": "9154e58b6943fe64e0c36e0ef76ad3ebb245a955c36d1b830447271552ff3fc4",
    "synth/dataset.csv": "f6ce5fd02ec98e47c92974080a8a444958482c9984521638c8707952dc8f8bd8",
    "synth/dataset_truth.json": "8f5547f6f25ada854290cfe494ba6696a9d0a09d24f4e324b40c05d11e39e8b8",
}


def _digests(out_dir):
    return {
        "%s/%s" % (out_dir.name, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({"seed": 5, "out_dir": str(root / "synth"), "synth": SYNTH}))
    assert main(["synth", "--config", str(synth_cfg)]) == 0
    run_cfg = root / "run.json"
    run_cfg.write_text(json.dumps({**RUN, "dataset": str(root / "synth" / "dataset.csv")}))
    digests = _digests(root / "synth")
    for command in COMMANDS:
        out = root / command
        assert main([command, "--config", str(run_cfg), "--out", str(out)]) == 0
        digests.update(_digests(out))
    return digests


def test_golden_artifact_set(walkthrough):
    assert sorted(walkthrough) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_artifact_bytes(walkthrough, artifact):
    assert walkthrough[artifact] == GOLDEN[artifact]
