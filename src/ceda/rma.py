"""Response manifold analytics: which covariates carve the joint response
into localities, and locality-based prediction with minor-feature sieving.

Major features: a candidate covariate's bins are scored by how much they
explain the joint response categorization (occupied cross-product cells of
the binned responses).  score = 1 - dce(candidate -> joint cells); scores at
or above the threshold make the candidate a major feature.

The locality lattice is one sort of the major features' mixed-radix cell
codes (``rows_by_cell``, which groups every crossing of categories here):
per occupied rectangle, the training rows inside it.  Prediction for
a new covariate point finds its rectangle, takes the k* nearest training
rows inside it (z-scored major coordinates), optionally sieves them by minor
feature equality, and returns the mean response vector of the focal rows.

Queries are predicted together by ``rma_predict_rows``, the one entry point:
every row is located in one pass, and the rows that share a rectangle get
their k* nearest training rows, z-scored as the rectangle is predicted, from
one call to the blocked kernel of the predictive map (``k_nearest``).  Each
rectangle's block of queries writes its means and flags into the arrays of
one ``RmaPredictions`` record, with the bits of one query at a time.
"""

import logging
import math
import string
import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .association import category_codes, cross_counts, directed_values, row_entropies
from .dataset import ZStats, column_stats, csv_text, feature_matrix
from .discretize import categorize_many
from .errors import ConfigError, DataError
from .predictive_map import k_nearest

log = logging.getLogger(__name__)

MAJOR_SCORE_THRESHOLD = 0.35
RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class ResponseSpec:
    responses: tuple
    covariates: tuple

    def __post_init__(self):
        if not self.responses:
            raise ConfigError("at least one response is required")
        if len(set(self.responses)) < len(self.responses):
            raise DataError("responses repeat a name: %s" % list(self.responses))
        overlap = set(self.responses) & set(self.covariates)
        if overlap:
            raise ConfigError("responses and covariates overlap: %s" % sorted(overlap))


def cell_ids(codes, dims):
    """Mixed-radix cell id of each row of (n, k) category codes, where dims
    maps the k features to their category counts; ids ascend with cells."""
    if math.prod(dims.values()) > np.iinfo(np.intp).max:
        raise DataError("the grid of %s has more cells than an index can count" % " x ".join(dims))
    return np.ravel_multi_index(tuple(codes.T), tuple(dims.values()))


def rows_by_cell(codes, dims):
    """{cell tuple: ascending row ids} of the occupied cells of (n, k)
    category codes, cells ascending; dims as for ``cell_ids``."""
    ids = cell_ids(codes, dims)
    cells, counts = np.unique(ids, return_counts=True)
    cells = np.column_stack(np.unravel_index(cells, tuple(dims.values()))).tolist()
    rows = np.split(np.argsort(ids, kind="stable"), np.cumsum(counts)[:-1])
    return dict(zip(map(tuple, cells), rows))


def joint_response_codes(table, spec, binnings):
    """Occupied joint response cells as a single categorical coding.

    Returns (codes, cell_names) where each occupied cross-product cell of
    the per-response categorizations is one category, cells ascending.
    """
    per_resp = [category_codes(table, r, binnings) for r in spec.responses]
    dims = {r: len(cats) for r, (_, cats) in zip(spec.responses, per_resp)}
    cells, joint = np.unique(cell_ids(np.column_stack([codes for codes, _ in per_resp]), dims),
                             return_inverse=True)
    names = ["/".join("%s=%s" % (r, cats[c]) for (codes, cats), r, c
                      in zip(per_resp, spec.responses, cell))
             for cell in zip(*np.unravel_index(cells, tuple(dims.values())))]
    return joint, names


@dataclass
class MajorFeatureScore:
    feature: str
    score: float
    threshold: float
    per_bin_dispersion: dict  # bin name -> {response: sd}

    @property
    def is_major(self):
        return self.score >= self.threshold


def score_major_candidate(table, spec, candidate, binnings, threshold=MAJOR_SCORE_THRESHOLD, joint=None):
    """Score one candidate covariate against the joint response cells (coded here unless given)."""
    if candidate in spec.responses:
        raise ConfigError("candidate '%s' is a response" % candidate)
    joint, cell_names = joint or joint_response_codes(table, spec, binnings)
    cand_codes, cand_cats = category_codes(table, candidate, binnings)
    if len(cell_names) < 2:
        raise DataError("joint response categorization is degenerate (one cell)")
    # two or more joint cells hold rows, so the target entropy is positive
    score = 1.0 - directed_values(cross_counts(cand_codes, len(cand_cats), joint, len(cell_names))[None])[0]
    numeric = [r for r in spec.responses if table.kind(r) != "categorical"]
    # each bin's responses as contiguous columns, which numpy sums pairwise
    R = np.array([table.values(r) for r in numeric], dtype=float).reshape(len(numeric), table.n_rows)
    dispersion = {str(cand_cats[b]): dict(zip(numeric, column_stats(R.take(rows, axis=1).T, numeric)[1].tolist()))
                  for (b,), rows in rows_by_cell(cand_codes[:, None], {candidate: len(cand_cats)}).items()}
    return MajorFeatureScore(feature=candidate, score=float(score),
                             threshold=threshold, per_bin_dispersion=dispersion)


@dataclass
class LocalityLattice:
    majors: list
    cats_per_major: list     # category names per major, defines the grid
    binnings: dict           # per continuous major
    discrete_values: dict    # per discrete major: sorted unique training values
    cells: dict              # ascending code tuple -> ascending np.ndarray of training row ids
    cell_regions: dict       # code tuple -> {response: (min, max)}
    responses: list
    zstats: ZStats           # frozen at build; prediction never rescales
    n_rows: int
    empty_cells: list = field(default=None)

    def cell_name(self, cell):
        if len(self.majors) == 2 and len(self.cats_per_major[0]) <= 26:
            return "%s%d" % (string.ascii_uppercase[cell[0]], cell[1] + 1)
        return "x".join(str(c) for c in cell)

    @property
    def dims(self):
        """Major -> its category count: the grid's shape."""
        return {m: len(cats) for m, cats in zip(self.majors, self.cats_per_major)}

    def locate_rows(self, X):
        """Cell codes (n, majors) and out-of-range flags (n,) of the rows of
        raw major values X.  A continuous major clamps into its end bins; a
        discrete major snaps to the nearest training value (the lower one
        on a tie).  Either way a clamped or snapped row is out of range."""
        X = np.asarray(X, dtype=float)
        codes = np.empty(X.shape, dtype=int)
        oor = np.zeros(len(X), dtype=bool)
        for j, major in enumerate(self.majors):
            x = X[:, j]
            bad = np.flatnonzero(~np.isfinite(x))
            if len(bad):
                raise DataError("major '%s' has a non-finite value in query row %d" % (major, bad[0]))
            if major in self.binnings:
                codes[:, j], flags = categorize_many(self.binnings[major], x)
            else:
                vals = self.discrete_values[major]
                above = np.searchsorted(vals, x)
                below = np.maximum(above - 1, 0)
                nearer_below = (above == len(vals)) | (
                    (above > 0) & (np.abs(vals[below] - x) <= np.abs(vals[np.minimum(above, len(vals) - 1)] - x)))
                codes[:, j] = np.where(nearer_below, below, above)
                flags = vals[codes[:, j]] != x
            oor |= flags
        return codes, oor

    def adjacent_cells(self, cell):
        """Occupied cells within one bin step in every major (Chebyshev 1)."""
        return [other for other in self.cells
                if other != cell and max(abs(a - b) for a, b in zip(other, cell)) <= 1]

    def to_json_dict(self):
        return {
            "majors": list(self.majors),
            "grid": {m: list(c) for m, c in zip(self.majors, self.cats_per_major)},
            "responses": list(self.responses),
            "n_rows": self.n_rows,
            "cells": [
                {
                    "cell": list(cell),
                    "name": self.cell_name(cell),
                    "n": int(len(rows)),
                    "rows": [int(r) for r in rows],
                    "regions": {
                        r: [float(lo), float(hi)]
                        for r, (lo, hi) in self.cell_regions[cell].items()
                    },
                }
                for cell, rows in self.cells.items()
            ],
            "empty_cells": None if self.empty_cells is None
            else [list(c) for c in self.empty_cells],
        }


def build_locality_lattice(table, spec, majors, binnings, bin_subset=None):
    """Cross the major features' bins and index training rows per rectangle.

    ``bin_subset`` optionally restricts each major to an explicit list of bin
    ids (rows outside any kept bin are excluded), which also covers coarse
    strip views when callers pass binnings built with a small target_bins.
    A key that is not a major, or a bin id outside its major's bins, raises
    ConfigError.
    """
    majors = list(majors)
    if not majors:
        raise DataError("at least one major feature is required")
    if len(set(majors)) < len(majors):
        raise DataError("majors repeat a name: %s" % majors)
    for m in majors:
        if m not in spec.covariates:
            raise DataError("major '%s' is not a declared covariate" % m)
        if table.kind(m) == "categorical":
            raise DataError("major '%s' is categorical; majors must be numeric" % m)
    bin_subset = bin_subset or {}
    for key in bin_subset:
        if key not in majors:
            raise ConfigError("bin_subset key '%s' is not a major (majors: %s)" % (key, ", ".join(majors)))
    codes_per_major, cats_per_major = [], []
    used_binnings, discrete_values = {}, {}
    for m in majors:
        codes, cats = category_codes(table, m, binnings)
        for b in bin_subset.get(m, ()):
            if b not in range(len(cats)):
                raise ConfigError("bin_subset['%s'] holds bin id %r; '%s' has bins 0..%d"
                                  % (m, b, m, len(cats) - 1))
        codes_per_major.append(codes)
        cats_per_major.append(cats)
        if table.kind(m) == "continuous":
            used_binnings[m] = binnings[m]
        else:
            discrete_values[m] = np.unique(np.asarray(table.values(m), dtype=float))
    n = table.n_rows
    keep = np.ones(n, dtype=bool)
    for m, codes in zip(majors, codes_per_major):
        if m in bin_subset:
            keep &= np.isin(codes, list(bin_subset[m]))
    kept = np.flatnonzero(keep)
    cells = rows_by_cell(np.column_stack(codes_per_major)[kept],
                         {m: len(cats) for m, cats in zip(majors, cats_per_major)})
    cells = {cell: kept[rows] for cell, rows in cells.items()}
    resp_vals = {r: np.asarray(table.values(r), dtype=float) for r in spec.responses
                 if table.kind(r) != "categorical"}
    regions = {cell: {r: (float(v[rows].min()), float(v[rows].max())) for r, v in resp_vals.items()}
               for cell, rows in cells.items()}
    if not cells:
        raise DataError("no occupied rectangles (empty bin subset?)")
    if all(len(rows) == 1 for rows in cells.values()):
        log.warning("every occupied rectangle holds a single row; binning looks too fine")
    grid = [sorted(set(bin_subset[m])) if m in bin_subset else range(len(cats))
            for m, cats in zip(majors, cats_per_major)]
    empty = [c for c in product(*grid) if c not in cells] if math.prod(map(len, grid)) <= 10000 else None
    X = feature_matrix(table, majors)
    zstats = ZStats.fit(X, majors)
    return LocalityLattice(
        majors=majors, cats_per_major=cats_per_major, binnings=used_binnings,
        discrete_values=discrete_values, cells=cells, cell_regions=regions,
        responses=list(spec.responses), zstats=zstats, n_rows=n, empty_cells=empty,
    )


@dataclass
class MinorFeatureReport:
    cells: list       # cell name in lattice order
    candidates: list
    entropies: np.ndarray  # cells x candidates; nan where skipped

    def to_csv_text(self):
        rows = [["patch"] + list(self.candidates)]
        for name, row in zip(self.cells, self.entropies):
            rows.append([name] + ["%.6g" % v if np.isfinite(v) else "" for v in row])
        return csv_text(rows)


def minor_feature_entropy(lattice, table, candidates, binnings=None):
    """Per-patch normalized Shannon entropy of each candidate's category mix.

    Normalization divides by log(category count of the candidate), so 0
    means one category owns the patch and 1 means a uniform mix.  Patches
    with fewer than 2 members are skipped (nan).
    """
    if not candidates:
        raise DataError("no minor-feature candidates given")
    members = list(lattice.cells.values())
    rows = np.concatenate(members)
    patch_of_row = np.repeat(np.arange(len(members)), [len(m) for m in members])
    out = np.empty((len(members), len(candidates)))
    for j, cand in enumerate(candidates):
        codes, cats = category_codes(table, cand, binnings)
        if len(cats) < 2:
            raise DataError("candidate '%s' has a single category" % cand)
        counts = cross_counts(patch_of_row, len(members), codes[rows], len(cats))
        out[:, j] = row_entropies(counts) / np.log(len(cats))
    out[[len(m) < 2 for m in members]] = np.nan
    return MinorFeatureReport(
        cells=[lattice.cell_name(c) for c in lattice.cells],
        candidates=list(candidates), entropies=out,
    )


# the flag columns of RmaPredictions, in the sorted order reports join them
FLAGS = ("adjacent_fallback", "out_of_range", "sieve_fallback", "underfilled")


@dataclass(frozen=True)
class RmaPredictions:
    values: np.ndarray     # (n, responses) mean response vector over each query's focal rows
    cells: np.ndarray      # (n, majors) rectangle codes
    flags: np.ndarray      # (n, len(FLAGS)) bool, one column per flag


def rma_predict_rows(X, minors, lattice, table, k_star=20, minor_binnings=None):
    """Predict the response vector of every row of X: one RmaPredictions
    record, row i for query i.

    X: (n, majors) raw major values in lattice major order.
    minors: mapping minor feature -> its n query values; may be empty.
    Fallbacks are flagged, never silent: out-of-range majors clamp, an empty
    rectangle borrows its occupied neighbors, an empty sieve reverts to the
    unsieved neighbors.  The focal rows of a query are its k* nearest
    training rows in the rectangle, by distance and then row id, in that
    order.
    """
    if k_star < 1:
        raise ConfigError("k_star must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("expected a 2-d array of major values, got %d dimensions" % X.ndim)
    if X.shape[1] != len(lattice.majors):
        raise DataError("expected %d major values, got %d" % (len(lattice.majors), X.shape[1]))
    for minor, values in minors.items():
        if len(values) != len(X):
            raise DataError("minor '%s' has %d values for %d query rows" % (minor, len(values), len(X)))
    codes, oor = lattice.locate_rows(X)
    sieve = [_sieve_keys(table, minor, values, minor_binnings) for minor, values in minors.items()]
    Xtr = feature_matrix(table, lattice.majors)
    Zq = lattice.zstats.transform(X)
    resp = feature_matrix(table, lattice.responses)
    values = np.empty((len(X), resp.shape[1]))
    adjacent, unsieved, underfilled = (np.zeros(len(X), dtype=bool) for _ in range(3))
    # cells in order of their first query row, so that an uncovered region
    # is reported for the first row that falls in one
    for cell, rows in sorted(rows_by_cell(codes, lattice.dims).items(), key=lambda item: item[1][0]):
        members = lattice.cells.get(cell)
        if members is None or len(members) == 0:
            neighbors = lattice.adjacent_cells(cell)
            if not neighbors:
                raise DataError(
                    "uncovered covariate region: rectangle %s and all adjacent rectangles are empty"
                    % (cell,))
            members = np.sort(np.concatenate([lattice.cells[n] for n in neighbors]))
            adjacent[rows] = True
        k = min(int(k_star), len(members))
        underfilled[rows] = k < k_star
        # members ascend, so (distance, member) order is (distance, row)
        focal = members[k_nearest(Zq[rows], lattice.zstats.transform(Xtr[members]), k)[1]]
        keep = np.ones(focal.shape, dtype=bool)
        for table_key, query_key in sieve:
            keep &= table_key[focal] == query_key[rows, None]
        unsieved[rows] = ~keep.any(axis=1)
        keep[unsieved[rows]] = True  # an empty sieve keeps every focal row
        n_kept = np.count_nonzero(keep, axis=1)
        for c in np.unique(n_kept):
            same = n_kept == c
            # a mean over axis 1 adds each row's focal responses in the
            # order, and to the bits, of a one-query mean over axis 0
            values[rows[same]] = resp[focal[same][keep[same]].reshape(-1, c)].mean(axis=1)
    return RmaPredictions(values=values, cells=codes,
                          flags=np.column_stack([adjacent, oor, unsieved, underfilled]))  # FLAGS order


def _sieve_keys(table, minor, values, minor_binnings):
    """Keys of one minor feature over the training rows and over the query
    values, equal where a training row passes the query's sieve: the string
    of a categorical value, the float of a discrete one, the bin id of a
    continuous one."""
    col = table.column(minor)
    if col.kind == "categorical":
        return col.values.astype(str), np.array([str(v) for v in values])
    if col.kind == "discrete":
        return np.asarray(col.values, dtype=float), np.array([float(v) for v in values])
    mb = (minor_binnings or {}).get(minor)
    if mb is None:
        raise DataError("continuous minor '%s' needs a binning" % minor)
    want, _ = categorize_many(mb, np.array([float(v) for v in values]))
    got, _ = categorize_many(mb, np.asarray(col.values, dtype=float))
    return got, want


# ---------------------------------------------------------------------------
# Error metrics


def _quadratic_form_rows(sigma, E):
    """Rows of E through e' inv(sigma) e; near-singular sigma gets a ridge.

    Returns (values, ridged flag)."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    w = np.linalg.eigvalsh(sigma)
    ridged = bool(w.min() <= 1e-12 * max(float(w.max()), 1e-30))
    if ridged:
        eps = RIDGE_SCALE * np.trace(sigma) / m
        if eps <= 0:
            eps = RIDGE_SCALE
        sigma = sigma + eps * np.eye(m)
    sol = np.linalg.solve(sigma, E.T)
    return np.einsum("ij,ji->i", E, sol), ridged


@dataclass
class PatchErrors:
    name: str
    n: int
    mse: dict            # response -> mean squared error
    mahal_global: float  # mean e' inv(Sigma_global) e
    mahal_patch: float   # patch-specific covariance version; None if < 3 members
    ridged_global: bool
    ridged_patch: bool


@dataclass
class ErrorReport:
    responses: list
    patches: list        # PatchErrors, pooled entry named "ALL" last

    def to_csv_text(self):
        heads = ["patch", "n"] + ["mse_%s" % r for r in self.responses] + [
            "mahal_global", "mahal_patch", "ridged_global", "ridged_patch"]
        rows = [heads]
        for p in self.patches:
            row = [p.name, str(p.n)]
            row += ["%.10g" % p.mse[r] for r in self.responses]
            row.append("%.10g" % p.mahal_global)
            row.append("" if p.mahal_patch is None else "%.10g" % p.mahal_patch)
            row.append(str(int(p.ridged_global)))
            row.append(str(int(p.ridged_patch)))
            rows.append(row)
        return csv_text(rows)


def error_metrics(predictions, truths, lattice, table):
    """Per-patch and pooled prediction error summaries.

    Three kinds: per-response mean squared error; mean error quadratic form
    under the global training response covariance; the same under each
    patch's own covariance (omitted below 3 members).  Sample covariances
    use the n-1 denominator; near-singular matrices get a flagged ridge of
    RIDGE_SCALE * trace / m instead of aborting.
    """
    if len(predictions.values) == 0:
        raise DataError("no predictions to score")
    E = predictions.values - np.asarray(truths, dtype=float)
    if E.shape[1] != len(lattice.responses):
        raise DataError("truths shape does not match the response list")
    resp_all = feature_matrix(table, lattice.responses)
    # errors and responses scaled by the power of two that brings the largest
    # |response| into [0.5, 1): the squares and covariances neither underflow
    # nor overflow, the quadratic forms keep their bits, and each mse scales back
    _, e = np.frexp(np.abs(resp_all).max())
    E, resp_all = np.ldexp(E, -e), np.ldexp(resp_all, -e)
    global_cov = np.atleast_2d(np.cov(resp_all, rowvar=False, ddof=1))
    patches = []
    # the pooled row "ALL" comes last: every prediction, and no patch covariance
    for cell, idx in [*rows_by_cell(predictions.cells, lattice.dims).items(), (None, slice(None))]:
        Ep = E[idx]
        mg, rg = _quadratic_form_rows(global_cov, Ep)
        members = lattice.cells.get(cell, ())
        mp, rp = None, False
        if len(members) >= 3:
            local_cov = np.cov(resp_all[members], rowvar=False, ddof=1)
            vals, rp = _quadratic_form_rows(np.atleast_2d(local_cov), Ep)
            mp = float(vals.mean())
        patches.append(PatchErrors(
            name="ALL" if cell is None else lattice.cell_name(cell), n=len(Ep),
            mse={r: float(np.ldexp(np.mean(Ep[:, j] ** 2), 2 * e)) for j, r in enumerate(lattice.responses)},
            mahal_global=float(mg.mean()), mahal_patch=mp,
            ridged_global=rg, ridged_patch=rp,
        ))
    return ErrorReport(responses=list(lattice.responses), patches=patches)


# ---------------------------------------------------------------------------
# Per-label ordinary least squares


@dataclass
class OlsFit:
    label: str
    coef: dict        # design column -> estimate ("intercept" first)
    se: dict
    pvalue: dict
    significant: dict
    resid_se: float
    df: int

    def row_cells(self, columns):
        cells = []
        for c in columns:
            v = "%.6g" % self.coef[c]
            if self.significant[c]:
                v += "*"
            cells.append(v)
        return cells


def ols_fit(ds, response, covariates, per_label=True):
    """Least squares with intercept over a LabeledDataset, per label or (per_label
    false) over all rows as "ALL": estimates, residual standard error with
    df = n - p - 1, and two-sided t-test stars at the 0.05 level.

    The response and covariates must be numeric columns.  The rank that
    ``lstsq`` reports decides collinearity: a design of rank r < p + 1 is a
    DataError naming p + 1 - r columns (``_collinear_columns``).  ``pvalue``
    holds ``t_two_sided_pvalue`` of each estimate's t statistic; a zero
    standard error gives t = inf (p = 0) for a nonzero estimate and t = 0
    (p = 1) for a zero one."""
    covariates = list(covariates)
    if not covariates:
        raise ConfigError("at least one covariate is required")
    if response in covariates:
        raise ConfigError("response '%s' repeated in covariates" % response)
    y_all = feature_matrix(ds.table, [response])[:, 0]
    X_all = feature_matrix(ds.table, covariates)
    design_names = ["intercept"] + covariates
    groups = ([(lab, ds.rows_with_label(lab)) for lab in ds.labels] if per_label
              else [("ALL", np.arange(ds.n_rows))])
    fits = []
    p = len(covariates)
    for label, rows in groups:
        n = len(rows)
        if n < p + 2:
            raise DataError("label '%s': %d rows cannot fit %d coefficients plus error df"
                            % (label, n, p + 1))
        X = np.column_stack([np.ones(n), X_all[rows]])
        y = y_all[rows]
        beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < p + 1:
            bad = _collinear_columns(X, design_names, rank)
            raise DataError("label '%s': collinear design columns: %s" % (label, ", ".join(bad)))
        resid = y - X @ beta
        df = n - p - 1
        rss = float(resid @ resid)
        s2 = rss / df
        try:
            xtx_inv = np.linalg.inv(X.T @ X)
        except np.linalg.LinAlgError:
            # X'X squares the condition number: a design of full rank can
            # still make it singular
            raise DataError("label '%s': X'X is singular; the design columns are nearly collinear"
                            % label) from None
        se = np.sqrt(np.maximum(s2 * np.diag(xtx_inv), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            tvals = np.where(se > 0, beta / se, np.where(beta != 0, np.inf, 0.0))
        pvals = [t_two_sided_pvalue(t, df) for t in tvals.tolist()]
        fits.append(OlsFit(
            label=str(label),
            coef=dict(zip(design_names, beta.tolist())),
            se=dict(zip(design_names, se.tolist())),
            pvalue=dict(zip(design_names, pvals)),
            significant=dict(zip(design_names, (v < 0.05 for v in pvals))),
            resid_se=math.sqrt(s2),
            df=df,
        ))
    return fits


def t_two_sided_pvalue(t, df):
    """P(|T| >= |t|) for Student's t with df degrees of freedom, on Python
    floats: the regularized incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2).

    t = +-inf gives 0, t = 0 gives 1 and a NaN t gives NaN.  Against
    ``2 * scipy.special.stdtr(df, -|t|)`` the relative error is about 1e-10
    at most for df up to 1e6; near the continued fraction's switch point it
    grows in proportion to df beyond that."""
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a = 0.5 * df
    # y = 1 - x is computed on its own: taken as 1 - x, it would lose its
    # digits where t^2 is small against df
    x = df / (df + t2)
    y = t2 / (df + t2)
    # log of x^a y^(1/2) / B(a, 1/2); log y from t^2 itself, since y
    # underflows to 0 for a subnormal t^2
    log_front = -a * math.log1p(t2 / df) + 0.5 * (math.log(t2) - math.log(df + t2)) - _log_beta_half(a)
    # the continued fraction converges fast below (a + 1) / (a + b + 2), and
    # the symmetry I_x(a, b) = 1 - I_y(b, a) serves above it
    if x * (a + 2.5) < a + 1.0:
        return math.exp(log_front) / a * _beta_continued_fraction(a, 0.5, x)
    return 1.0 - 2.0 * math.exp(log_front) * _beta_continued_fraction(0.5, a, y)


def _log_beta_half(a):
    """log B(a, 1/2).  From a = 10 on, an asymptotic series replaces the
    difference of two lgamma values, which would lose about 1e-9 of the
    tail's relative accuracy to cancellation at a = 5e5."""
    if a < 10.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    # log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2 = sum over even k of
    # (-1)^k (B_k(1/2) - B_k) / (k (k - 1) a^(k - 1)); here k = 2..10
    z = 1.0 / (a * a)
    series = (-1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (17 / 14336 + z * (-31 / 18432))))) / a
    return 0.5 * math.log(math.pi / a) - series


def _beta_continued_fraction(a, b, x):
    """The continued fraction of I_x(a, b) (modified Lentz, at most 1000
    steps): I_x(a, b) is x^a (1 - x)^b / (a B(a, b)) times this value."""
    tiny = 1e-300
    eps = sys.float_info.epsilon
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 1001):
        a2m = a + 2 * m
        # the even step
        aa = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        # the odd step
        aa = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + aa / c
        c = c if abs(c) >= tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= eps:
            break
    return h


def _collinear_columns(X, names, rank):
    """Names of the design columns left dependent on the others after rank
    steps of Gram-Schmidt with column pivoting: each step takes the
    remaining column of largest residual norm (the first on a tie) and
    projects it out of the rest.  rank is the design's rank, as ``ols_fit``
    takes it from ``lstsq``, so exactly X.shape[1] - rank columns are named.

    These are the columns a pivoted Householder QR
    (``scipy.linalg.qr(pivoting=True)``) leaves after rank pivots, unless two
    residual norms tie after a projection: there its rounding picks the
    pivot, and here the first column does."""
    R = np.array(X, dtype=float)
    left = list(range(R.shape[1]))
    for _ in range(rank):
        rest = R[:, left]
        norms = np.linalg.norm(rest, axis=0)
        # norms within rounding of the largest tie
        k = int(np.argmax(norms >= norms.max() * (1.0 - 1e-10)))
        q = rest[:, k] / norms[k]
        del left[k]
        R[:, left] -= np.outer(q, q @ R[:, left])
    return sorted(names[j] for j in left)


def ols_report_text(fits, covariates):
    """CSV table in the per-label report layout: intercept and slope columns
    starred when significant, then residual standard error and df."""
    columns = ["intercept"] + list(covariates)
    rows = [["label"] + columns + ["residual_std_error", "df"]]
    rows += [[f.label] + f.row_cells(columns) + ["%.6g" % f.resid_se, f.df] for f in fits]
    return csv_text(rows)
