"""Response manifold analytics: which covariates carve the joint response
into localities, and locality-based prediction with minor-feature sieving.

Major features: a candidate covariate's bins are scored by how much they
explain the joint response categorization (occupied cross-product cells of
the binned responses).  score = 1 - dce(candidate -> joint cells); scores at
or above the threshold make the candidate a major feature.

The locality lattice crosses the major features' bins into rectangles and
keeps, per occupied rectangle, the training rows inside it.  Prediction for
a new covariate point finds its rectangle, takes the k* nearest training
rows inside it (z-scored major coordinates), optionally sieves them by minor
feature equality, and returns the mean response vector of the focal rows.
"""

import logging
import string
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy import stats as scipy_stats

from .association import ContingencyTable, category_codes, directed_conditional_entropy
from .dataset import LabeledDataset, ZStats, csv_text, feature_matrix
from .discretize import categorize_many
from .errors import ConfigError, DataError

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
        overlap = set(self.responses) & set(self.covariates)
        if overlap:
            raise ConfigError("responses and covariates overlap: %s" % sorted(overlap))


def joint_response_codes(table, spec, binnings):
    """Occupied joint response cells as a single categorical coding.

    Returns (codes, cell_names) where each occupied cross-product cell of
    the per-response categorizations is one category.
    """
    if isinstance(table, LabeledDataset):
        table = table.table
    per_resp = [category_codes(table, r, binnings) for r in spec.responses]
    combos = np.column_stack([codes for codes, _ in per_resp])
    cells, joint = np.unique(combos, axis=0, return_inverse=True)
    names = ["/".join("%s=%s" % (r, cats[c]) for (codes, cats), r, c
                      in zip(per_resp, spec.responses, cell))
             for cell in cells]
    return joint.ravel(), names


@dataclass
class MajorFeatureScore:
    feature: str
    score: float
    threshold: float
    per_bin_dispersion: dict  # bin name -> {response: sd}

    @property
    def is_major(self):
        return self.score >= self.threshold


def score_major_candidate(table, spec, candidate, binnings, threshold=MAJOR_SCORE_THRESHOLD):
    """Score one candidate covariate against the joint response cells."""
    if isinstance(table, LabeledDataset):
        table = table.table
    if candidate in spec.responses:
        raise ConfigError("candidate '%s' is a response" % candidate)
    joint, cell_names = joint_response_codes(table, spec, binnings)
    cand_codes, cand_cats = category_codes(table, candidate, binnings)
    if len(cell_names) < 2:
        raise DataError("joint response categorization is degenerate (one cell)")
    counts = np.zeros((len(cand_cats), len(cell_names)), dtype=int)
    np.add.at(counts, (cand_codes, joint), 1)
    t = ContingencyTable(candidate, "joint-response", list(cand_cats), cell_names, counts)
    score = 1.0 - directed_conditional_entropy(t, "row_to_col")
    dispersion = {}
    resp_vals = {}
    for r in spec.responses:
        col = table.column(r)
        if col.kind != "categorical":
            resp_vals[r] = np.asarray(col.values, dtype=float)
    for b, cat in enumerate(cand_cats):
        rows = cand_codes == b
        if not np.any(rows):
            continue
        dispersion[str(cat)] = {r: float(v[rows].std()) for r, v in resp_vals.items()}
    return MajorFeatureScore(feature=candidate, score=float(score),
                             threshold=threshold, per_bin_dispersion=dispersion)


@dataclass
class LocalityLattice:
    majors: list
    cats_per_major: list     # category names per major, defines the grid
    binnings: dict           # per continuous major
    discrete_values: dict    # per discrete major: sorted unique training values
    cells: dict              # code tuple -> sorted np.ndarray of training row ids
    cell_regions: dict       # code tuple -> {response: (min, max)}
    responses: list
    zstats: ZStats           # frozen at build; prediction never rescales
    n_rows: int
    empty_cells: list = field(default=None)

    def cell_name(self, cell):
        if len(self.majors) == 2 and len(self.cats_per_major[0]) <= 26:
            return "%s%d" % (string.ascii_uppercase[cell[0]], cell[1] + 1)
        return "x".join(str(c) for c in cell)

    def locate(self, x_values):
        """Map raw major values to a cell code tuple plus out-of-range flag."""
        codes, oor = [], False
        for value, major in zip(x_values, self.majors):
            if major in self.binnings:
                b = self.binnings[major]
                ids, flags = categorize_many(b, np.asarray([value], dtype=float))
                codes.append(int(ids[0]))
                oor = oor or bool(flags[0])
            else:
                vals = self.discrete_values[major]
                j = int(np.searchsorted(vals, value))
                if j == len(vals) or (j > 0 and abs(vals[j - 1] - value) <= abs(vals[j] - value)):
                    j = j - 1 if j > 0 else 0
                codes.append(j)
                oor = oor or (vals[j] != value)
        return tuple(codes), oor

    def adjacent_cells(self, cell):
        """Occupied cells within one bin step in every major (Chebyshev 1)."""
        out = []
        for other in self.cells:
            if other == cell:
                continue
            if max(abs(a - b) for a, b in zip(other, cell)) <= 1:
                out.append(other)
        return out

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
                for cell, rows in sorted(self.cells.items())
            ],
            "empty_cells": None if self.empty_cells is None
            else [list(c) for c in self.empty_cells],
        }


def build_locality_lattice(table, spec, majors, binnings, bin_subset=None):
    """Cross the major features' bins and index training rows per rectangle.

    ``bin_subset`` optionally restricts each major to an explicit list of bin
    ids (rows outside any kept bin are excluded), which also covers coarse
    strip views when callers pass binnings built with a small target_bins.
    """
    if isinstance(table, LabeledDataset):
        table = table.table
    majors = list(majors)
    if not majors:
        raise DataError("at least one major feature is required")
    for m in majors:
        if m not in spec.covariates:
            raise DataError("major '%s' is not a declared covariate" % m)
        if table.kind(m) == "categorical":
            raise DataError("major '%s' is categorical; majors must be numeric" % m)
    bin_subset = {k: set(v) for k, v in (bin_subset or {}).items()}
    codes_per_major, cats_per_major = [], []
    used_binnings, discrete_values = {}, {}
    for m in majors:
        codes, cats = category_codes(table, m, binnings)
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
    combo = np.column_stack(codes_per_major)
    resp_vals = {r: np.asarray(table.values(r), dtype=float) for r in spec.responses
                 if table.kind(r) != "categorical"}
    cells, regions = {}, {}
    for i in np.flatnonzero(keep):
        cells.setdefault(tuple(int(c) for c in combo[i]), []).append(int(i))
    for cell, rows in cells.items():
        cells[cell] = np.asarray(sorted(rows), dtype=int)
        regions[cell] = {
            r: (float(v[cells[cell]].min()), float(v[cells[cell]].max()))
            for r, v in resp_vals.items()
        }
    if not cells:
        raise DataError("no occupied rectangles (empty bin subset?)")
    if all(len(rows) == 1 for rows in cells.values()):
        log.warning("every occupied rectangle holds a single row; binning looks too fine")
    grid_sizes = []
    for m, cats in zip(majors, cats_per_major):
        ids = range(len(cats)) if m not in bin_subset else sorted(bin_subset[m])
        grid_sizes.append(list(ids))
    empty = None
    total = np.prod([len(g) for g in grid_sizes])
    if total <= 10000:
        empty = [c for c in product(*grid_sizes) if c not in cells]
    X = feature_matrix(table, majors)
    zstats = ZStats.fit(X)
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
    if isinstance(table, LabeledDataset):
        table = table.table
    if not candidates:
        raise DataError("no minor-feature candidates given")
    cand_codes = {}
    cand_n_cats = {}
    for cand in candidates:
        codes, cats = category_codes(table, cand, binnings)
        if len(cats) < 2:
            raise DataError("candidate '%s' has a single category" % cand)
        cand_codes[cand] = codes
        cand_n_cats[cand] = len(cats)
    cell_keys = sorted(lattice.cells)
    out = np.full((len(cell_keys), len(candidates)), np.nan)
    for i, cell in enumerate(cell_keys):
        rows = lattice.cells[cell]
        if len(rows) < 2:
            continue
        for j, cand in enumerate(candidates):
            counts = np.bincount(cand_codes[cand][rows], minlength=cand_n_cats[cand])
            p = counts[counts > 0] / counts.sum()
            h = float(-np.sum(p * np.log(p)))
            out[i, j] = h / np.log(cand_n_cats[cand])
    return MinorFeatureReport(
        cells=[lattice.cell_name(c) for c in cell_keys],
        candidates=list(candidates), entropies=out,
    )


@dataclass(frozen=True)
class RmaPrediction:
    values: np.ndarray     # mean response vector over the focal rows
    cell: tuple
    flags: frozenset       # subset of {out_of_range, adjacent_fallback, underfilled, sieve_fallback}
    focal_rows: tuple
    k_used: int

    @property
    def flagged(self):
        return bool(self.flags)


def rma_predict(x, z, lattice, table, k_star=20, minor_binnings=None):
    """Predict the response vector at covariate point x with minor values z.

    x: mapping major -> value (or a sequence in lattice major order).
    z: mapping minor feature -> value; may be empty.
    Fallbacks are flagged, never silent: out-of-range majors clamp, an empty
    rectangle borrows its occupied neighbors, an empty sieve reverts to the
    unsieved neighbors.
    """
    if isinstance(table, LabeledDataset):
        table = table.table
    if k_star < 1:
        raise ConfigError("k_star must be >= 1")
    if hasattr(x, "keys"):
        missing = [m for m in lattice.majors if m not in x]
        if missing:
            raise DataError("missing major values: %s" % missing)
        xvals = np.array([float(x[m]) for m in lattice.majors])
    else:
        xvals = np.asarray(x, dtype=float)
        if len(xvals) != len(lattice.majors):
            raise DataError("expected %d major values, got %d" % (len(lattice.majors), len(xvals)))
    flags = set()
    cell, oor = lattice.locate(xvals)
    if oor:
        flags.add("out_of_range")
    members = lattice.cells.get(cell)
    if members is None or len(members) == 0:
        neighbors = lattice.adjacent_cells(cell)
        if not neighbors:
            raise DataError(
                "uncovered covariate region: rectangle %s and all adjacent rectangles are empty"
                % (cell,))
        members = np.sort(np.concatenate([lattice.cells[c] for c in neighbors]))
        flags.add("adjacent_fallback")
    Xm = lattice.zstats.transform(feature_matrix(table, lattice.majors)[members])
    xz = lattice.zstats.transform(xvals.reshape(1, -1))[0]
    d = np.linalg.norm(Xm - xz, axis=1)
    k = min(int(k_star), len(members))
    if k < k_star:
        flags.add("underfilled")
    order = np.lexsort((members, d))[:k]
    focal = members[order]
    if z:
        mask = np.ones(len(focal), dtype=bool)
        for minor, value in z.items():
            col = table.column(minor)
            if col.kind == "categorical":
                mask &= (col.values[focal].astype(str) == str(value))
            elif col.kind == "discrete":
                mask &= (np.asarray(col.values, dtype=float)[focal] == float(value))
            else:
                mb = (minor_binnings or {}).get(minor)
                if mb is None:
                    raise DataError("continuous minor '%s' needs a binning" % minor)
                want, _ = categorize_many(mb, np.asarray([float(value)]))
                got, _ = categorize_many(mb, np.asarray(col.values, dtype=float)[focal])
                mask &= (got == want[0])
        if mask.any():
            focal = focal[mask]
        else:
            flags.add("sieve_fallback")
    resp = feature_matrix(table, lattice.responses)[focal]
    return RmaPrediction(
        values=resp.mean(axis=0), cell=cell, flags=frozenset(flags),
        focal_rows=tuple(int(r) for r in focal), k_used=int(len(focal)),
    )


# ---------------------------------------------------------------------------
# Error metrics


def _quadratic_form_rows(sigma, E, ridge_scale=RIDGE_SCALE):
    """Rows of E through e' inv(sigma) e; near-singular sigma gets a ridge.

    Returns (values, ridged flag)."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    w = np.linalg.eigvalsh(sigma)
    ridged = bool(w.min() <= 1e-12 * max(float(w.max()), 1e-30))
    if ridged:
        eps = ridge_scale * np.trace(sigma) / m
        if eps <= 0:
            eps = ridge_scale
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


def error_metrics(predictions, truths, lattice, table, global_cov=None, ridge_scale=RIDGE_SCALE):
    """Per-patch and pooled prediction error summaries.

    Three kinds: per-response mean squared error; mean error quadratic form
    under the global training response covariance; the same under each
    patch's own covariance (omitted below 3 members).  Sample covariances
    use the n-1 denominator; near-singular matrices get a flagged ridge of
    ridge_scale * trace / m instead of aborting.
    """
    if isinstance(table, LabeledDataset):
        table = table.table
    if len(predictions) == 0:
        raise DataError("no predictions to score")
    truths = np.asarray(truths, dtype=float)
    E = np.vstack([p.values for p in predictions]) - truths
    if E.shape[1] != len(lattice.responses):
        raise DataError("truths shape does not match the response list")
    resp_all = feature_matrix(table, lattice.responses)
    if global_cov is None:
        global_cov = np.cov(resp_all, rowvar=False, ddof=1)
    global_cov = np.atleast_2d(np.asarray(global_cov, dtype=float))
    by_patch = {}
    for i, p in enumerate(predictions):
        by_patch.setdefault(p.cell, []).append(i)
    patches = []
    for cell in sorted(by_patch):
        idx = np.asarray(by_patch[cell])
        Ep = E[idx]
        mg, rg = _quadratic_form_rows(global_cov, Ep, ridge_scale)
        members = lattice.cells.get(cell, np.empty(0, dtype=int))
        mp, rp = None, False
        if len(members) >= 3:
            local_cov = np.cov(resp_all[members], rowvar=False, ddof=1)
            vals, rp = _quadratic_form_rows(np.atleast_2d(local_cov), Ep, ridge_scale)
            mp = float(vals.mean())
        patches.append(PatchErrors(
            name=lattice.cell_name(cell), n=len(idx),
            mse={r: float(np.mean(Ep[:, j] ** 2)) for j, r in enumerate(lattice.responses)},
            mahal_global=float(mg.mean()), mahal_patch=mp,
            ridged_global=rg, ridged_patch=rp,
        ))
    mg_all, rg_all = _quadratic_form_rows(global_cov, E, ridge_scale)
    patches.append(PatchErrors(
        name="ALL", n=len(E),
        mse={r: float(np.mean(E[:, j] ** 2)) for j, r in enumerate(lattice.responses)},
        mahal_global=float(mg_all.mean()), mahal_patch=None,
        ridged_global=rg_all, ridged_patch=False,
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

    def row_cells(self, columns, fmt="%.6g"):
        cells = []
        for c in columns:
            v = fmt % self.coef[c]
            if self.significant[c]:
                v += "*"
            cells.append(v)
        return cells


def ols_fit(ds, response, covariates, per_label=True, alpha=0.05):
    """Least squares with intercept, per label: estimates, residual standard
    error with df = n - p - 1, and two-sided t-test stars at the alpha level."""
    covariates = list(covariates)
    if not covariates:
        raise ConfigError("at least one covariate is required")
    if response in covariates:
        raise ConfigError("response '%s' repeated in covariates" % response)
    table = ds.table if isinstance(ds, LabeledDataset) else ds
    y_all = np.asarray(table.values(response), dtype=float)
    X_all = feature_matrix(table, covariates)
    design_names = ["intercept"] + covariates
    groups = [(lab, ds.rows_with_label(lab)) for lab in ds.labels] if per_label and isinstance(ds, LabeledDataset) \
        else [("ALL", np.arange(len(y_all)))]
    fits = []
    p = len(covariates)
    for label, rows in groups:
        n = len(rows)
        if n < p + 2:
            raise DataError("label '%s': %d rows cannot fit %d coefficients plus error df"
                            % (label, n, p + 1))
        X = np.column_stack([np.ones(n), X_all[rows]])
        y = y_all[rows]
        rank = np.linalg.matrix_rank(X)
        if rank < p + 1:
            bad = _collinear_columns(X, design_names)
            raise DataError("label '%s': collinear design columns: %s" % (label, ", ".join(bad)))
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        df = n - p - 1
        rss = float(resid @ resid)
        s2 = rss / df
        xtx_inv = np.linalg.inv(X.T @ X)
        se = np.sqrt(np.maximum(s2 * np.diag(xtx_inv), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            tvals = np.where(se > 0, beta / se, np.where(beta != 0, np.inf, 0.0))
        pvals = 2.0 * scipy_stats.t.sf(np.abs(tvals), df)
        fits.append(OlsFit(
            label=str(label),
            coef=dict(zip(design_names, (float(b) for b in beta))),
            se=dict(zip(design_names, (float(v) for v in se))),
            pvalue=dict(zip(design_names, (float(v) for v in pvals))),
            significant=dict(zip(design_names, (bool(v < alpha) for v in pvals))),
            resid_se=float(np.sqrt(s2)),
            df=int(df),
        ))
    return fits


def _collinear_columns(X, names):
    from scipy.linalg import qr

    _, r, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps
    return sorted(names[piv[i]] for i in range(len(diag)) if diag[i] <= tol)


def ols_report_text(fits, covariates, fmt="%.6g"):
    """CSV table in the per-label report layout: intercept and slope columns
    starred when significant, then residual standard error and df."""
    columns = ["intercept"] + list(covariates)
    rows = [["label"] + columns + ["residual_std_error", "df"]]
    rows += [[f.label] + f.row_cells(columns, fmt) + [fmt % f.resid_se, f.df] for f in fits]
    return csv_text(rows)
