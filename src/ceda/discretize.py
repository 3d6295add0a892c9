"""Possibly-gapped equal-width histograms for continuous columns.

A column is first cut into ``max(3, ceil(log2 N) + 1)`` equal-width bins over
``[min, max]`` (or an explicit ``target_bins``).  Maximal runs of empty bins
are then collapsed: the occupied bins on either side become adjacent
categories and the collapsed boundary between them is flagged as a gap at the
midpoint of the empty run.  Bins are left-closed right-open, except the last
which is closed, so every training value lands in exactly one bin.

``default_binnings`` builds the histograms of a table's continuous features,
with per-feature bin targets, and ``categorize_many`` maps values to bin ids,
clamping values outside the training range into the end bins.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import column_stats
from .errors import DataError


@dataclass(frozen=True)
class Binning:
    feature: str
    edges: np.ndarray      # ascending, length n_bins + 1
    gap_flags: np.ndarray  # bool per edge; True where an empty run was collapsed
    counts: np.ndarray     # training occupancy per bin
    train_stats: tuple     # (mean, sd, min, max); mean and sd from column_stats, exact under 2^k scaling

    @property
    def n_bins(self):
        return len(self.edges) - 1

    def to_report(self):
        return {
            "feature": self.feature,
            "edges": [float(e) for e in self.edges],
            "gap_flags": [bool(g) for g in self.gap_flags],
            "counts": [int(c) for c in self.counts],
            "train_stats": {
                "mean": float(self.train_stats[0]),
                "sd": float(self.train_stats[1]),
                "min": float(self.train_stats[2]),
                "max": float(self.train_stats[3]),
            },
        }


def default_bin_count(n):
    return max(3, math.ceil(math.log2(n)) + 1)


def build_histogram(values, target_bins=None, feature=""):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise DataError("build_histogram needs a non-empty 1-d array")
    if not np.all(np.isfinite(values)):
        raise DataError("column '%s' contains non-finite values" % feature)
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        raise DataError("column '%s' is constant, cannot bin" % feature)
    (mean,), (sd,) = column_stats(values[:, None], [feature])
    m = default_bin_count(len(values)) if target_bins is None else int(target_bins)
    if m < 1:
        raise DataError("target_bins must be >= 1")
    raw_edges = np.linspace(vmin, vmax, m + 1)
    ids = np.searchsorted(raw_edges, values, side="right") - 1
    ids = np.clip(ids, 0, m - 1)  # vmax falls into the last (closed) bin
    occupancy = np.bincount(ids, minlength=m)
    occupied = np.flatnonzero(occupancy)
    # min sits in bin 0 and max in bin m-1, so empty runs are interior only
    edges = [raw_edges[0]]
    gaps = [False]
    for prev, cur in zip(occupied[:-1], occupied[1:]):
        if cur == prev + 1:
            edges.append(raw_edges[cur])
            gaps.append(False)
        else:
            # midpoint of the collapsed empty run [prev+1, cur-1]
            edges.append(0.5 * (raw_edges[prev + 1] + raw_edges[cur]))
            gaps.append(True)
    edges.append(raw_edges[-1])
    gaps.append(False)
    return Binning(
        feature=feature,
        edges=np.asarray(edges),
        gap_flags=np.asarray(gaps, dtype=bool),
        counts=occupancy[occupied].copy(),
        train_stats=(float(mean), float(sd), vmin, vmax),
    )


def categorize_many(binning, xs):
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DataError("cannot categorize non-finite values for '%s'" % binning.feature)
    edges = binning.edges
    n_bins = binning.n_bins
    ids = np.searchsorted(edges, xs, side="right") - 1
    ids = np.clip(ids, 0, n_bins - 1)
    oor = (xs < edges[0]) | (xs > edges[-1])
    return ids.astype(int), oor


def default_binnings(table, features, target_bins=None, per_feature=None):
    """Histograms of the continuous columns among features, in their order.

    per_feature maps a feature to its own target_bins, overriding
    target_bins."""
    per_feature = per_feature or {}
    out = {}
    for name in features:
        c = table.column(name)
        if c.kind == "continuous":
            out[name] = build_histogram(c.values, per_feature.get(name, target_bins), name)
    return out
