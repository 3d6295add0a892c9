"""The MCC commands under a power-of-two scaling of every feature.

Scaling a float by 2^k is exact while it stays a normal float, and every
statistic taken of a column (``dataset.column_stats``) scales with it.  So
z-scores, bins and every decision keep their bits: each report of ``mce``,
``let``, ``pmap``, ``chain`` and ``dissect`` on the scaled input is
byte-identical to the unscaled one, except the reports that hold raw feature
values, whose values are the unscaled ones times 2^k.  ``rma``'s error
report keeps its Mahalanobis means and ridge flags, and its mse scales by
2^2k where that stays a normal float.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ceda.cli import main
from ceda.dataset import Column, DataTable, synth_generate, write_csv
from ceda.discretize import default_binnings

COMMANDS = ("mce", "let", "pmap", "chain", "dissect")

# four labels on three features, small enough for every command to run in a
# fraction of a second
SOURCE = synth_generate("gauss-clouds", {"centers": [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3]],
                                         "n_per_label": 12, "sd": 0.6}, seed=4).table
FEATURES = [c.name for c in SOURCE.columns if c.kind != "categorical"]


def k_range():
    """The k for which every feature value, bin edge, mean and sd of the
    unscaled input, times 2^k, is a normal float and every feature's
    (max - min)^2 stays finite."""
    values = np.concatenate([np.asarray(SOURCE.values(f), dtype=float) for f in FEATURES])
    for b in default_binnings(SOURCE, FEATURES).values():
        values = np.concatenate([values, b.edges, b.train_stats])
    smallest = np.abs(values[values != 0]).min()
    widest = max(np.ptp(np.asarray(SOURCE.values(f), dtype=float)) for f in FEATURES)
    # smallest * 2^k >= 2^-1022, and widest^2 * 2^2k < 2^1024
    return -1022 - math.floor(math.log2(smallest)), 511 - math.floor(math.log2(widest))


K_LOW, K_HIGH = k_range()


def write_scaled(table, k, root):
    """root/data.csv: the table with every numeric column times 2^k."""
    root.mkdir()
    data = root / "data.csv"
    write_csv(DataTable([Column(c.name, c.kind, np.ldexp(np.asarray(c.values, dtype=float), k))
                         if c.kind != "categorical" else c for c in table.columns]), data)
    return data


def run_all(root, k, commands=COMMANDS):
    """Each command's reports, name -> bytes, on the input scaled by 2^k."""
    data = write_scaled(SOURCE, k, root)
    out = {}
    for command in commands:
        cfg = root / (command + ".json")
        cfg.write_text(json.dumps({"dataset": str(data), "label_column": "label", "seed": 3,
                                   "out_dir": str(root / command)}))
        assert main([command, "--config", str(cfg)]) == 0, (command, k)
        out[command] = {p.name: p.read_bytes() for p in (root / command).iterdir()}
    return out


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("k") / "0", 0)


def scaled(report, k):
    return [math.ldexp(v, k) for v in report]


def assert_scaled_by(reports, unscaled, k):
    """binning_report.json and split_test.csv hold raw feature values, times
    2^k; manifest.json the config's hash; every other report the same bytes."""
    for command, files in reports.items():
        base = unscaled[command]
        assert sorted(files) == sorted(base), command
        for name, text in files.items():
            if name == "manifest.json":
                assert json.loads(text)["artifacts"] == json.loads(base[name])["artifacts"]
            elif name == "binning_report.json":
                got, want = json.loads(text), json.loads(base[name])
                assert sorted(got) == sorted(want)
                for f, b in want.items():
                    assert got[f]["edges"] == scaled(b["edges"], k), f
                    assert got[f]["train_stats"] == dict(zip(b["train_stats"], scaled(
                        b["train_stats"].values(), k))), f
                    assert (got[f]["counts"], got[f]["gap_flags"]) == (b["counts"], b["gap_flags"]), f
            elif name == "split_test.csv":
                got, want = (list(csv.DictReader(t.decode().splitlines())) for t in (text, base[name]))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g == {**w, **{f: repr(math.ldexp(float(w[f]), k)) for f in FEATURES}}
            else:
                assert text == base[name], (command, name)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(K_LOW, K_HIGH))
@example(k=K_LOW)
@example(k=K_HIGH)
def test_reports_are_invariant_under_power_of_two_scaling(tmp_path_factory, unscaled, k):
    assert_scaled_by(run_all(tmp_path_factory.mktemp("k") / str(k), k), unscaled, k)


def test_a_spread_below_1e_154_keeps_its_geometry(tmp_path, unscaled):
    # the squared deviations of a column at 2^-540 underflowed to an sd of 0,
    # the column kept unit scale, every z-score sat near 0, and let, pmap,
    # chain and dissect stopped on "persistent distance ties"
    reports = run_all(tmp_path / "k", -540, ("let", "pmap", "chain", "dissect"))
    assert_scaled_by(reports, unscaled, -540)


RMA_SOURCE = synth_generate("magnus-manifold", {"n_per_label": 200}, seed=1).table


def rma_errors(root, k):
    """rma_errors.csv's rows on the magnus-manifold input scaled by 2^k."""
    data = write_scaled(RMA_SOURCE, k, root)
    cfg = root / "rma.json"
    cfg.write_text(json.dumps({"dataset": str(data), "label_column": "label", "seed": 3, "out_dir": str(root / "out"),
                               "rma": {"responses": ["pfx_x", "pfx_z"], "majors": ["spin_dir", "spin_rate"]}}))
    assert main(["rma", "--config", str(cfg)]) == 0
    return list(csv.DictReader((root / "out" / "rma_errors.csv").read_text().splitlines()))


@pytest.mark.parametrize("k", [-540, 400])
def test_rma_error_quadratic_forms_are_invariant_under_power_of_two_scaling(tmp_path, k):
    # at 2^-540 the covariances underflowed: both ridge flags read 1 and the
    # Mahalanobis means about 2e-319
    base, got = rma_errors(tmp_path / "0", 0), rma_errors(tmp_path / "k", k)
    assert len(got) == len(base) > 1
    for g, b in zip(got, base):
        for col in ("mahal_global", "mahal_patch", "ridged_global", "ridged_patch"):
            assert g[col] == b[col], (g["patch"], col)
        if k > 0:
            for col in ("mse_pfx_x", "mse_pfx_z"):
                assert float(g[col]) == pytest.approx(math.ldexp(float(b[col]), 2 * k), rel=1e-9)
