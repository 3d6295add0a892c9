"""The benchmark's workloads: seeded inputs, CLI configs and command lists.

Inputs are drawn here with numpy, following the geometry of the program's
``gauss-clouds`` and ``magnus-manifold`` generators without calling them, so
a change to the program cannot change what it is measured on.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

LABELS = "abcdefghijklmnopqrstuvwxyz"
TRAIN_FRACTION = 0.8
INPUT_SEED_STRIDE = 100_000

CLOUD_CENTERS = [
    [0.0, 0.0, 0.0, 0.0],
    [1.2, 0.0, 0.0, 1.2],
    [0.0, 1.2, 1.2, 0.0],
    [1.2, 1.2, 0.0, 0.0],
    [0.6, 0.6, 2.4, 2.4],
    [3.0, 3.0, 3.0, 3.0],
]


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int              # keeps each workload's random stream apart
    sizes: dict              # scale ("full" | "smoke") -> (labels, rows per label)
    inputs: int              # seeded inputs per run; their mean evens out seed-to-seed work
    commands: tuple          # CLI commands, run in this order
    scaling_command: object  # command re-run at 1/2 and 1/4 of the rows, or None

    def generate(self, seed, scale):
        """Columns (name -> array, label column last) for one seed and scale."""
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), self.stream]))
        return _GENERATORS[self.name](rng, *self.sizes[scale])

    def config(self, dataset, seed):
        cfg = {
            "dataset": str(dataset),
            "label_column": "label",
            "seed": int(seed),
            "split": {"train_fraction": TRAIN_FRACTION, "stratified": True},
        }
        cfg.update(_CONFIGS[self.name])
        return cfg


def _labels(n_labels, n_per_label):
    return np.repeat(np.array(list(LABELS[:n_labels]), dtype=object), n_per_label)


def _gauss(rng, centers, sd, n_per_label):
    X = np.vstack([np.asarray(c) + sd * rng.standard_normal((n_per_label, len(c))) for c in centers])
    cols = {"f%d" % j: X[:, j] for j in range(X.shape[1])}
    cols["label"] = _labels(len(centers), n_per_label)
    return cols


def _clouds_chain(rng, n_labels, n_per_label):
    return _gauss(rng, CLOUD_CENTERS[:n_labels], 0.4, n_per_label)


def _wide_labels(rng, n_labels, n_per_label):
    centers = rng.normal(0.0, 1.5, size=(n_labels, 32))
    return _gauss(rng, centers, 1.0, n_per_label)


def _manifold_rma(rng, n_labels, n_per_label, noise_sd=0.02):
    # magnus-manifold: pfx = rate * (sin dir, cos dir) + noise, plus an
    # independent standard normal covariate
    dirs = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, n_per_label) for _ in range(n_labels)])
    rates = np.concatenate([rng.uniform(0.75, 1.25, n_per_label) for _ in range(n_labels)])
    n = len(dirs)
    pfx_x = rates * np.sin(dirs) + noise_sd * rng.standard_normal(n)
    pfx_z = rates * np.cos(dirs) + noise_sd * rng.standard_normal(n)
    return {
        "spin_dir": dirs, "spin_rate": rates, "pfx_x": pfx_x, "pfx_z": pfx_z,
        "noise": rng.standard_normal(n), "label": _labels(n_labels, n_per_label),
    }


_GENERATORS = {
    "clouds-chain": _clouds_chain,
    "wide-labels": _wide_labels,
    "manifold-rma": _manifold_rma,
}

_CONFIGS = {
    "clouds-chain": {
        "feature_sets": {"a": ["f0", "f1"], "b": ["f2", "f3"]},
        "chain": ["a", "b"],
    },
    "wide-labels": {"feature_sets": {"all": ["f%d" % j for j in range(32)]}},
    "manifold-rma": {
        "rma": {
            "responses": ["pfx_x", "pfx_z"],
            "major_candidates": ["spin_dir", "spin_rate", "noise"],
            "majors": ["spin_dir", "spin_rate"],
            "bins_per_major": 8,
            "minors": ["noise"],
            "ols": {"response": "pfx_x", "covariates": ["spin_dir", "spin_rate"], "per_label": True},
        },
    },
}

WORKLOADS = {
    w.name: w for w in [
        # shallow predictive-map descents in 2-D over large node groups, a
        # two-link chain, and the k-NN dissection on the same split
        Workload(name="clouds-chain", stream=1, sizes={"full": (6, 1000), "smoke": (6, 60)}, inputs=2,
                 commands=("pmap", "chain", "dissect"), scaling_command="pmap"),
        # 496 feature pairs and 2024 label triples; deep 32-D descents over
        # many small node groups; a 33-column CSV
        Workload(name="wide-labels", stream=2, sizes={"full": (24, 150), "smoke": (8, 20)}, inputs=5,
                 commands=("mce", "let", "pmap"), scaling_command="pmap"),
        # a 36k-row CSV and 7200 rma queries; bypasses the predictive map and
        # the label tree
        Workload(name="manifold-rma", stream=3, sizes={"full": (6, 6000), "smoke": (6, 200)}, inputs=1,
                 commands=("mce", "rma"), scaling_command="rma"),
    ]
}


def input_seeds(seed, inputs):
    """Seeds of a run's inputs: the run seed first, then seeds far from any
    run seed, so input 0 of every run seed keeps its recorded reference."""
    return [int(seed) + INPUT_SEED_STRIDE * j for j in range(inputs)]


def nested_subset(columns, fraction, seed):
    """Rows kept at ``fraction`` of each label, drawn with the workload seed.

    One permutation per label is cut at every fraction, so the subsets for
    1/4, 1/2 and 1 are nested."""
    labels = columns["label"]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 99]))
    keep = []
    for lab in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == lab)
        perm = rng.permutation(len(idx))
        keep.append(idx[np.sort(perm[:max(2, int(round(fraction * len(idx))))])])
    rows = np.sort(np.concatenate(keep))
    return {name: values[rows] for name, values in columns.items()}


def expected_test_counts(columns):
    """Per-label test-split sizes implied by the stratified split."""
    out = {}
    for lab in sorted(set(columns["label"].tolist())):
        n = int(np.sum(columns["label"] == lab))
        out[lab] = n - int(round(TRAIN_FRACTION * n))
    return out


def write_dataset(columns, path):
    """Write columns as CSV; floats use repr so the program reads them back exactly."""
    names = list(columns)
    cells = [[repr(float(v)) for v in columns[n]] if n != "label" else list(columns[n]) for n in names]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*cells))
