"""Golden-artifact gate: the README walkthrough on a small fixed config must
write byte-identical reports across code versions.

Each command writes into its own out_dir (pmap and dissect also run a
second time, on feature sets of three and five features), and every
artifact except manifest.json (which carries a timestamp and a hash of the
absolute config paths) is compared by SHA-256 against the digests recorded below.  A change
that moves any of these digests must say in CHANGES.md which artifact moved
and why, and record the new digest here.

The same digests must hold on numpy's AVX2 loops where it dispatches
AVX-512 ones, and a canary pins the numpy Generator calls whose draws
reach a report, so that a numpy release that changes one is named.

The walkthrough also runs under a profile hook that records the functions
it calls: every function of the package must be among them, or be listed
in NOT_REACHED with the reason it stays.
"""

import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ceda
from ceda.cli import main
from ceda.label_tree import _draw

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

# pmap and dissect again on feature sets of three and five features, where
# the descent and the k-NN baseline take the many-feature kernel path; each
# writes into its own out_dir
WIDE_RUN = {
    **RUN,
    "feature_sets": {
        "all": ["spin_dir", "spin_rate", "pfx_x", "pfx_z", "noise"],
        "kin3": ["spin_dir", "spin_rate", "noise"],
    },
    "chain": ["all", "kin3"],
}

WIDE_COMMANDS = ("pmap", "dissect")

GOLDEN = {
    "chain/chain_depth1.csv": "24ebbb7995195e0531bcd5687e907ad5e3e0f2a15f266a2f74cd06ffc6740eb9",
    "chain/chain_depth1.json": "0b1d87419642857f48df938c3957f4ac36ffdd8635956433105cc1ea99b4aa34",
    "chain/chain_depth2.csv": "6c1bf7a0452b8323e6f81e9d83defe11e46dd243b62f8d4901195dac07ac32ea",
    "chain/chain_depth2.json": "760da0a80be95d43123f1244f8b7a6878a38f4f251086b3e5998c396add0b9c9",
    "chain/chain_rows.csv": "7de8903bb71642939950f4ba4abb495beb43242768ff06fa60c60e313d06d047",
    "chain/chain_summary.json": "8de0c28364df831dd3990ee5bffd798d4f629579261f8bdbbabf00206e61f17c",
    "chain/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "dissect/baseline_predictions.csv": "337823a62e333010fc5b8944e7b7942e47e9ee8a403e6718e483d381ca672ced",
    "dissect/dissection.csv": "16893d15d34244e84c2c772a98ad8e8ead15b09b58c160d7cbd7bd963de717af",
    "dissect/dissection.json": "b330ef231e961847e5d7a608a5fa5a96e06a93653096ce3b33fe1321067ee592",
    "dissect/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "dissect_wide/baseline_predictions.csv": "0deaa8094dc9ed4b4f0295afae71b0e46bb51abb25f9dd270f3cf35e0abb3c7e",
    "dissect_wide/dissection.csv": "24cf2cf35a268bf0b1c0d6ac1e1aaa89ac2ae44f583f430c1018c56a044491b4",
    "dissect_wide/dissection.json": "fd8c0e877489b52c23b9f3d6a183f2f7bf0ce16366b87450ae3bb26290f54655",
    "dissect_wide/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "let/dominance.csv": "840721415dd9038b3bb9b08e835fc397bc1bab8beb18646302815b08a664c6dd",
    "let/label_distance.csv": "12232aa284127372c6360ac3097fe5bc06cd2b7aed52c55fcdbb220f5f52c152",
    "let/tree.json": "c15e2b3302f5444fd5adebe99d33cd36065212d5e45a05f2b4d0fe17669662e5",
    "let/tree.newick": "c687abda5b6370f27bea0a12c85b4f0cf82d62712b468f1d39121fbd0b414e97",
    "mce/binning_report.json": "fc35392ba4330d81b10d4ff4524cdf5e75a6c50a745daf2d6a49ab37747de0e1",
    "mce/feature_rank.csv": "cea79cb1e2c0a011e63f32eff51609cb800e7d88723fec6062490c6e802e4e56",
    "mce/mce_groups.json": "1c0f59cdaa0cb981ef4baed02ceef5c75b8baa8d09184661ffd4f91cf86a0679",
    "mce/mce_matrix.csv": "42bd3f529dfda9e9ed2972d7db4448cc9efb53af65b888dc2278f75c873204b3",
    "pmap/pies.json": "598ff358851891b472e0b6610e3616eacccc71a4c4a62372b32d6ec5578e53e0",
    "pmap/pmap_kin.csv": "24ebbb7995195e0531bcd5687e907ad5e3e0f2a15f266a2f74cd06ffc6740eb9",
    "pmap/pmap_kin.json": "bd79994d0ffdbfeb412794d15d0ce50aba9ac39a8ff9228315866a29e7777f26",
    "pmap/pmap_kin_points.csv": "b42c860ad27b3384a88d18bfaa7e97f38166446d7377bf61cd52b52783860b80",
    "pmap/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
    "pmap_wide/pies.json": "1a0e45c17c5c8d76b9172c4a58855636d53ac00a92f00712fc262a76ba1bf73a",
    "pmap_wide/pmap_all.csv": "b5e65ae36a615abd4190b0adfa1fa45b8f965df791e04fdb52a41269029ca5a8",
    "pmap_wide/pmap_all.json": "313fce7bb684823717f73339e01dcb310c407baa031d4e6322a1a4d8d5816817",
    "pmap_wide/pmap_all_points.csv": "468fbd339a17aca1ddd33f5209bbfc93b8eefb3cc5ed94a5458446a8d7f46141",
    "pmap_wide/split_test.csv": "009568f7406d506c812af75cc4b9791fd68a2704bd185af7549576c649165c6b",
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


def run_walkthrough(root):
    """Run every command of the walkthrough into its own out_dir under
    root; returns the digest of every artifact."""
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({"seed": 5, "out_dir": str(root / "synth"), "synth": SYNTH}))
    assert main(["synth", "--config", str(synth_cfg)]) == 0
    run_cfg = root / "run.json"
    run_cfg.write_text(json.dumps({**RUN, "dataset": str(root / "synth" / "dataset.csv")}))
    wide_cfg = root / "wide.json"
    wide_cfg.write_text(json.dumps({**WIDE_RUN, "dataset": str(root / "synth" / "dataset.csv")}))
    digests = _digests(root / "synth")
    runs = [(command, command, run_cfg) for command in COMMANDS]
    runs += [(command, command + "_wide", wide_cfg) for command in WIDE_COMMANDS]
    for command, out_name, cfg in runs:
        out = root / out_name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        digests.update(_digests(out))
    return digests


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough's root, its digests, and the code objects it called."""
    root = tmp_path_factory.mktemp("golden")
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        digests = run_walkthrough(root)
    finally:
        sys.setprofile(previous)
    return root, digests, called


def test_golden_artifact_set(walkthrough):
    assert sorted(walkthrough[1]) == sorted(GOLDEN)


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_artifact_bytes(walkthrough, artifact):
    assert walkthrough[1][artifact] == GOLDEN[artifact]


def _records(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tallies(path):
    """(category, true label) -> count from a category-by-label table."""
    return Counter({(r["category"], lab): int(n) for r in _records(path) for lab, n in r.items() if lab != "category"})


@pytest.mark.parametrize("report", ["pmap/pmap_kin_points.csv", "pmap_wide/pmap_all_points.csv"])
def test_golden_maps_hold_every_ending(walkthrough, report):
    # each point's path is rebuilt from the descent's competition log; the
    # byte gate checks that for every ending only while each one occurs
    last = [p["path"].split()[-1].split(":")[1] for p in _records(walkthrough[0] / report)]
    endings = Counter(d if d in ("stop", "outlier") else "leaf" for d in last)
    assert min(endings[e] for e in ("leaf", "stop", "outlier")) >= 1, endings


# out dir -> its per-row CSV and the summary that CSV must tally to
PER_ROW = {
    "pmap": ("pmap_kin_points.csv", "pmap_kin.csv"),
    "pmap_wide": ("pmap_all_points.csv", "pmap_all.csv"),
    "chain": ("chain_rows.csv", "chain_depth%d.csv"),
    "dissect": ("dissection.csv", "dissection.json"),
    "dissect_wide": ("dissection.csv", "dissection.json"),
}


@pytest.mark.parametrize("out_dir", sorted(PER_ROW))
def test_golden_per_row_reports_conserve(walkthrough, out_dir):
    # a per-row CSV holds one line per split_test.csv row, in row order, and
    # tallies to the summary written beside it
    out = walkthrough[0] / out_dir
    name, summary = PER_ROW[out_dir]
    rows = _records(out / name)
    assert [int(r["row"]) for r in rows] == list(range(len(rows)))
    assert [r["true"] for r in rows] == [r["label"] for r in _records(out / "split_test.csv")]
    if out_dir.startswith("pmap"):
        assert Counter((r["category"], r["true"]) for r in rows) == _tallies(out / summary)
    elif out_dir == "chain":
        depths = ["depth%d" % d for d in range(1, len(list(out.glob("chain_depth*.csv"))) + 1)]
        assert list(rows[0]) == ["row", "true"] + depths
        for d, column in enumerate(depths, start=1):
            assert Counter((r[column], r["true"]) for r in rows if r[column]) == _tallies(out / (summary % d))
        for r in rows:
            cells = [r[column] for column in depths]
            assert cells[0], r
            # a row goes on refining exactly while its category is uncertain
            assert all(bool(after) == before.startswith("*") for before, after in zip(cells, cells[1:])), r
    else:
        totals = json.loads((out / summary).read_text())["totals"]
        assert Counter(r["case"] for r in rows) == Counter(totals)


# --- every function of the package is one the commands call -------------

# module.qualname -> why the walkthrough does not call it
NOT_REACHED = {
    "association.contingency_table": "bench/spans.py wraps it by name; the library's one-table cross-tabulation",
    "chain.load_external_predictions": "dissect.external, which the walkthrough leaves unset",
    "cli._Parser.error": "a command line argparse refuses",
    "dataset._parse_floats": "the loader's float() path, for cells np.loadtxt does not parse",
    "dataset._default_labels": "synth labels when params name none",
    "dataset._gauss_clouds": "synth kind gauss-clouds",
    "dataset._linear_speed": "synth kind linear-speed",
    "label_tree._draw": "a triple sample on a one-row label, or a tie redraw",
    "predictive_map._logsumexp_rows": "the exact KDEs, for an open row within the screen's margin",
    "predictive_map.log_gaussian_kde": "the exact KDEs, for an open row within the screen's margin",
    "rma.LocalityLattice.adjacent_cells": "a query whose rectangle holds no training row",
    "rma._collinear_columns": "the error of an OLS fit on collinear covariates",
}


def package_functions():
    """module.qualname of every function and method defined in the
    package's source; lambdas, comprehensions and class bodies left out."""
    found = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.add("%s.%s" % (module, const.co_qualname))
                walk(const, module)

    for path in sorted(Path(ceda.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11 on")
def test_the_walkthrough_reaches_every_package_function(walkthrough):
    package = Path(ceda.__file__).parent
    called = {"%s.%s" % (Path(code.co_filename).stem, code.co_qualname)
              for code in walkthrough[2] if Path(code.co_filename).parent == package}
    defined = package_functions()
    stale = sorted(set(NOT_REACHED) - defined)
    assert not stale, "listed but not defined: %s" % ", ".join(stale)
    unreached = sorted(defined - called - set(NOT_REACHED))
    assert not unreached, "no command reaches these: %s" % ", ".join(unreached)
    reached = sorted(called & set(NOT_REACHED))
    assert not reached, "the walkthrough reaches these listed functions: %s" % ", ".join(reached)


# --- the same bytes on other SIMD levels and numpy releases ----------------


def avx512_loops():
    """The AVX-512 targets among numpy's dispatched loops that this process
    runs, by numpy's own names."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)]


AVX2_WALKTHROUGH = """
import json, pathlib, sys
import test_golden
out = pathlib.Path(sys.argv[1])
digests = test_golden.run_walkthrough(out)
(out / "result.json").write_text(json.dumps({"avx512": test_golden.avx512_loops(), "digests": digests}))
"""


def test_golden_digests_hold_without_avx512_loops(tmp_path):
    # numpy picks its float64 exp, log and log1p loops by CPU, and its
    # AVX-512 and AVX2 loops differ in the last bit of some results; the
    # reports must not.  Naming a loop numpy does not dispatch warns on
    # import, which fails the run
    disable = avx512_loops()
    if not disable:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU, so the AVX2 loops already ran")
    paths = [str(Path(ceda.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disable),
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", AVX2_WALKTHROUGH, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-3000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["avx512"] == [], "NPY_DISABLE_CPU_FEATURES=%s left %s on" % (" ".join(disable), result["avx512"])
    assert sorted(result["digests"]) == sorted(GOLDEN)
    moved = [name for name in sorted(GOLDEN) if result["digests"][name] != GOLDEN[name]]
    assert not moved, "on numpy's AVX2 loops these artifacts moved: %s" % moved


# What numpy 2.4 draws in the two Generator calls whose results reach a
# report.  NEP 19 keeps SeedSequence and the raw PCG64 words stable across
# numpy releases, but not Generator methods: a release that changes one
# moves every split- or sample-dependent digest above, and this test names
# the call.
PERMUTATIONS = [
    [1, 0],
    [7, 6, 1, 3, 2, 4, 0, 8, 5],
    [29, 15, 2, 6, 22, 26, 10, 25, 7, 12, 4, 11, 17, 0, 19, 9, 23, 3, 24, 8, 28, 13, 27, 1, 16, 5, 20, 21, 14, 18],
]
DRAWS = {
    # spawn key: (label sizes, round one of 6 samples, then 2 more)
    0: ([1, 2, 150], [[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0], [68, 3, 140, 18, 58, 84]], [[0, 0], [1, 0], [117, 45]]),
    7: ([7, 60, 3000], [[4, 3, 4, 0, 3, 6], [27, 55, 43, 34, 8, 41], [1268, 1533, 20, 2678, 2566, 972]],
        [[1, 5], [55, 39], [58, 197]]),
}


def test_numpy_generator_calls_that_reach_reports_draw_as_recorded():
    # split_train_test: one permutation per label from one seeded Generator
    rng = np.random.default_rng(5)
    assert [rng.permutation(n).tolist() for n in (2, 9, 30)] == PERMUTATIONS, \
        "numpy's Generator.permutation changed: every train/test split, and so every report, moves"
    # the triple sampler: _draw's Generator.integers on a spawned SeedSequence,
    # round one and then a tie redraw from the same stream
    for key, (sizes, first, again) in DRAWS.items():
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(key,)))
        got = [[a.tolist() for a in _draw(rng, sizes, m)] for m in (6, 2)]
        assert got == [first, again], \
            "numpy's Generator.integers changed: the triple samples, and so let, pmap and chain, move"
