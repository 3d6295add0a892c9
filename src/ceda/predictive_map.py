"""Set-valued classification by serial binary competitions down a label tree.

A test point enters at the root and at each internal node the two branches
compete for it:

1. Outlier screen: if the distance to the nearest training point of the
   node's labels exceeds a high quantile of the node's own nearest-neighbor
   distance distribution, descent stops with an empty prediction.
2. Dominant neighborhood: among the k* nearest training points (restricted
   to the node's labels), a branch holding at least a dominant fraction of
   them wins outright.
3. Pseudo-likelihood: otherwise each branch's distance sample gets a
   Gaussian kernel density (Silverman rule-of-thumb bandwidth), both
   evaluated at the median distance from the point to all node members
   (the bits of ``np.median``, from one partition).  A left/right density
   ratio above the upper threshold sends the point left, below the lower
   threshold right; a ratio inside the threshold band stops descent at this
   node.

The stop node's label set is the prediction: a singleton at a leaf, several
labels at an internal stop, empty for outliers.  A descent returns the stop
nodes, outlier flags and a log of its (node, rows, decisions) competitions,
each decision an int8 code into ``DECISIONS``.

Points descend together, one tree level at a time: each node decides all
the points that reached it in one competition, with the same decisions a
point-at-a-time descent makes, and builds the node's rows, left branch and
KD tree as it runs.  Rules 1 and 2 need only each point's k* nearest rows
and its nearest distance, which ``k_nearest`` finds exact to the bit: the
node's KD tree for one or two features, else one screen (``_screen``):
exact distances, or Gram values with a proven rounding margin for more,
and one sort per row of the candidates.  A point's k* nearest go down the
tree with it, so a child searches only the points whose parent's k* do
not all lie in it.  The outlier quantile is exact too: own-label upper
bounds and exact distances for the few rows that can reach it.  Only the
points rule 3 decides get their distances to every node member
(``distance_rows``), with the node's left-branch rows first, so each
branch's sample is a column slice; their median is one in-place partition
of a copy in the scratch the distances leave free (``median_rows``).  Rule
3 reads only the side of each threshold the log ratio lies on, so a
one-pass estimate of it in that same scratch decides every row farther than
a proven rounding margin from both thresholds (``_screened_log_ratio``,
``_kde_margin``).  The few rows within it, or whose estimate the margin
does not cover, take the exact KDEs, whose log-sum-exp is one in-place
exponential (``_logsumexp_rows``) with the bits of scipy's ``logsumexp``.
The kernels cut their query rows into blocks of bounded size
(``row_blocks``) that reuse one work buffer, so callers hand over all their
rows at once."""

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .dataset import ZStats, csv_text, feature_matrix
from .errors import ConfigError, DataError, check_kind

log = logging.getLogger(__name__)

# a competition's decision for each row, as an int8 code into this tuple
DECISIONS = ("left", "right", "stop", "outlier")
LEFT, RIGHT, STOP, OUTLIER = range(len(DECISIONS))


@dataclass(frozen=True)
class CompetitionConfig:
    k_star: int = 20
    pl_lower: float = 0.65
    pl_upper: float = 100.0 / 65.0
    dominant_fraction: float = 0.9
    outlier_quantile: float = 0.99  # None disables the outlier screen

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.name == "outlier_quantile"):
                check_kind("competition." + f.name, value, f.type)
        if self.k_star < 1:
            raise ConfigError("competition.k_star must be >= 1")
        if not 0.0 < self.pl_lower <= 1.0 <= self.pl_upper:
            raise ConfigError(
                "competition.pl_lower and pl_upper must satisfy 0 < lower <= 1 <= upper, got (%r, %r)"
                % (self.pl_lower, self.pl_upper)
            )
        if not 0.5 < self.dominant_fraction <= 1.0:
            raise ConfigError("competition.dominant_fraction must lie in (0.5, 1]")
        if self.outlier_quantile is not None and not 0.0 < self.outlier_quantile < 1.0:
            raise ConfigError("competition.outlier_quantile must lie in (0, 1) or be None")


def silverman_bandwidth(samples):
    """Rule-of-thumb bandwidth 1.06 * sd * n^(-1/5) of each sample (the last
    axis) with a degeneracy floor."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    sd = samples.std(axis=-1, ddof=1) if n > 1 else np.zeros(samples.shape[:-1])
    h = 1.06 * sd * n ** (-0.2)
    flat = h <= 0.0
    if np.any(flat):
        # single point or zero spread: fall back to a tiny positive width
        floor = np.maximum(1e-9, 1e-3 * np.abs(np.median(samples, axis=-1)))
        h = np.where(flat, floor, h)
    return h


# math.log, not np.log: numpy's vectorised log may round differently, and a
# last-bit change can flip a threshold decision
_log = np.vectorize(math.log, otypes=[float])


def _logsumexp_rows(a):
    """log(sum(exp(row))) of each row of the C-ordered 2-d float array a,
    with the bits of scipy's ``logsumexp(a, axis=-1)``: the row's
    maxima are taken out of the sum, which is log1p(s / m) + log(m) + max
    for m maxima and the rest summing to s.  One in-place exp over a, which
    this overwrites.

    A row's result is not finite exactly when its max is not (+inf, NaN, or
    a row of -inf); those rows take scipy's fallback log(sum(exp(row)))."""
    mx = a.max(axis=1)
    finite = np.isfinite(mx)
    if not finite.all():
        out = np.empty(len(a))
        with np.errstate(over="ignore", divide="ignore"):
            out[~finite] = np.log(np.exp(a[~finite]).sum(axis=1))
        out[finite] = _logsumexp_rows(a[finite])
        return out
    top = a == mx[:, None]
    m = np.count_nonzero(top, axis=1).astype(float)
    a[top] = -np.inf
    a -= mx[:, None]
    np.exp(a, out=a)
    s = a.sum(axis=1)
    np.divide(s, m, out=s, where=s != 0.0)
    return np.log1p(s) + np.log(m) + mx


def log_gaussian_kde(samples, x):
    """Log density at x of a Gaussian KDE over each sample (the last axis of
    samples, one x per sample).  Log-space keeps the ratio of two branch
    densities finite even far from both samples."""
    samples = np.asarray(samples, dtype=float)
    x = np.asarray(x, dtype=float)
    h = silverman_bandwidth(samples)
    u = np.subtract(x[..., None], samples)
    u /= h[..., None]
    a = np.multiply(u, -0.5)
    a *= u
    lse = _logsumexp_rows(a.reshape(-1, a.shape[-1])).reshape(a.shape[:-1])
    return lse - _log(samples.shape[-1] * h * math.sqrt(2.0 * math.pi))


# Bytes of float temporaries one block of query rows may hold.  ``k_nearest``
# cuts its queries into blocks by its screen's two float64 cells per (query
# row, reference row) pair, not per feature; ``distance_rows`` is cut by its
# own (rows, reference rows, cells) size (``row_cells``).  Larger blocks
# amortise per-call overhead, smaller ones bound memory.
BLOCK_BYTES = 2 * 1024 * 1024

# float64 cells per (query, reference) pair that ``_screen`` holds: its
# values (the distances with one or two features, the Gram form with more)
# and their partition copy; the candidates' padded rows reuse the first
SCREEN_CELLS = 2


def row_blocks(n_rows, n_ref, cells):
    """Slices cutting n_rows query rows into blocks whose (rows, n_ref,
    cells) float64 temporaries fit in BLOCK_BYTES, at least one row each,
    and the float64 elements of one work buffer that serves every block."""
    step = max(1, BLOCK_BYTES // (8 * n_ref * cells))
    return [slice(s, s + step) for s in range(0, n_rows, step)], min(n_rows, step) * n_ref * cells


def row_cells(n_features):
    """Float64 cells per (query, reference) pair that ``distance_rows``
    holds: the distance beside the second column's square for one or two
    features, or beside the (rows, reference, features) differences."""
    return n_features + 1 if n_features > 2 else 2


def distance_rows(Q, R, work):
    """Distances from each query row to every reference row.

    dist[i, j] is ||R[j] - Q[i]||, reduced over features exactly as
    ``np.linalg.norm(R - Q[i], axis=1)``.  ``work`` is a flat float64 buffer
    of at least len(Q) * len(R) * row_cells(features) elements, which a
    loop over ``row_blocks`` allocates once; dist is its first len(Q) *
    len(R) elements and holds until the next call on the buffer, and the
    same number after it are free scratch.  With one or two features it
    reads R by column, so a loop over blocks passes ``np.asfortranarray(R)``,
    whose columns are contiguous."""
    m, n, n_features = len(Q), len(R), Q.shape[1]
    cells = m * n
    dist = work[:cells].reshape(m, n)
    if n_features <= 2:
        # a sum of one or two non-negative squares has the same bits in any
        # order, so the columns are added without the 3-d difference array
        np.subtract(R[:, 0], Q[:, 0, None], out=dist)
        np.square(dist, out=dist)
        if n_features == 2:
            part = work[cells:2 * cells].reshape(m, n)
            np.subtract(R[:, 1], Q[:, 1, None], out=part)
            np.square(part, out=part)
            np.add(dist, part, out=dist)
    else:
        diff = work[cells:cells * (n_features + 1)].reshape(m, n, n_features)
        np.subtract(R[None, :, :], Q[:, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=-1, out=dist)
    np.sqrt(dist, out=dist)
    return dist


def median_rows(d, work):
    """np.median(d, axis=1) with its bits, from one in-place partition of a
    copy of d in work[d.size:2 * d.size], the scratch ``distance_rows``
    leaves after its distances.  An even width sums the two middle values
    and halves them, as np.median's mean of them does.

    A row holding a NaN needs no other path: the partition puts it last, so
    the median may be a number where np.median gives NaN, but the NaN also
    enters its branch's Silverman spread, which makes that KDE, the log
    ratio and so the decision the same whatever the median is."""
    m, n = d.shape
    part = work[m * n:2 * m * n].reshape(m, n)
    np.copyto(part, d)
    h = n // 2
    part.partition(h, axis=1)
    if n % 2:
        return part[:, h].copy()
    return (part[:, :h].max(axis=1) + part[:, h]) / 2.0


# bandwidths the screened log ratio takes; with h outside, a row takes the
# exact KDEs (see ``_kde_margin``)
_SCREEN_H = (2.0 ** -100, 2.0 ** 100)
# smallest branch kernel sum the screened log ratio takes
_SCREEN_SUM = 2.0 ** -900


def _screened_log_ratio(d, x, n_left, work):
    """An estimate of log_gaussian_kde(d[:, :n_left], x) - log_gaussian_kde(
    d[:, n_left:], x) per row, within ``_kde_margin(d.shape[1])`` of it, in
    five passes over work[d.size:2 * d.size], the scratch ``median_rows``
    leaves: the squared differences, each branch's scale by its -0.5 / h^2,
    one exponential and one sum per branch, with no shift by the row's
    largest exponent.  NaN where the margin does not cover the estimate: a
    branch sum below _SCREEN_SUM or a bandwidth outside _SCREEN_H."""
    m, n = d.shape
    t = work[m * n:2 * m * n].reshape(m, n)
    h_left, h_right = silverman_bandwidth(d[:, :n_left]), silverman_bandwidth(d[:, n_left:])
    # h^2 and -0.5 / h^2 may overflow beyond _SCREEN_H, as may a huge t^2,
    # 0 * inf is NaN and an underflowed sum's log -inf: all rows NaN below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.subtract(d, x[:, None], out=t)
        np.multiply(t, t, out=t)
        t[:, :n_left] *= (-0.5 / (h_left * h_left))[:, None]
        t[:, n_left:] *= (-0.5 / (h_right * h_right))[:, None]
        np.exp(t, out=t)
        s_left, s_right = t[:, :n_left].sum(axis=1), t[:, n_left:].sum(axis=1)
        est = np.log(s_left * (n - n_left) * h_right) - np.log(s_right * n_left * h_left)
    # with both sums and bandwidths in range, s n h and so est are finite
    lo, hi = _SCREEN_H
    covered = ((s_left >= _SCREEN_SUM) & (s_right >= _SCREEN_SUM)
               & (h_left >= lo) & (h_left <= hi) & (h_right >= lo) & (h_right <= hi))
    est[~covered] = np.nan
    return est


def kd_tree(X):
    """A ``scipy.spatial.cKDTree`` over the rows of X for ``k_nearest`` when
    X has one or two features; None with more, where it takes the Gram
    form of ``_screen``.

    The tree cuts each node's box at the midpoint of its widest side,
    sliding the cut to the nearest row when one side would be empty, and
    does not shrink the boxes to their rows (S. Maneewongvatana and D. M.
    Mount, "It's okay to be skinny, if your friends are fat", 1999).  That
    builds in about half the time of median cuts with shrunk boxes, and the
    search is exact whatever the tree's shape."""
    if X.shape[1] > 2:
        return None
    # imported here: after ``import ceda.cli`` it takes 0.34-0.37 s and 31 MB
    # more (2-vCPU machine), which commands with more features never pay
    from scipy.spatial import cKDTree

    return cKDTree(X, balanced_tree=False, compact_nodes=False)


def _pair_distances(Q, R, qi, rj, work):
    """||R[rj[p]] - Q[qi[p]]|| for each index pair p, with the bits of
    ``distance_rows``: the same subtraction and squares, and the same
    ``np.add.reduce`` over a contiguous feature axis.  Pairs go through the
    work buffer in chunks."""
    n_features = Q.shape[1]
    out = np.empty(len(qi))
    step = max(1, len(work) // n_features)
    for s in range(0, len(qi), step):
        q, r = qi[s:s + step], rj[s:s + step]
        diff = work[:len(q) * n_features].reshape(len(q), n_features)
        np.take(R, r, axis=0, out=diff)
        np.subtract(diff, Q[q], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=out[s:s + step])
    return np.sqrt(out, out=out)


# Rounding margin of ``_screen``'s Gram form, per feature count d: with
# u = 2^-53 and gamma_n = n*u / (1 - n*u), for any summation order the BLAS
# uses (each product of Q @ R.T a sum of d rounded products, as in every
# conventional gemm; a Strassen-type gemm is not covered):
#  - the screen s = fl(fl(qq + rr) - 2*fl(q.r)), with qq and rr rounded sums
#    of squares, errs from the true D = ||q - r||^2 by at most
#    alpha*N, N = ||q||^2 + ||r||^2, alpha = 2*gamma_d + 3u + O(u^2): each
#    of qq, rr and q.r errs by gamma_d*N at most (|q_k r_k| <= (q_k^2 +
#    r_k^2) / 2), the addition by u*N, and the subtraction by u*|s| <= 2u*N;
#  - the exact distance e = sqrt(sum of fl(fl(r_k - q_k)^2)) sums d
#    non-negative terms, so its square errs from D relatively by at most
#    gamma_{d+2} before the correctly rounded square root.
# Let t be a row's k-th smallest screen value and j one of its k nearest by
# (e, row).  If s_j > t, some row l among the k smallest screen values is
# not among the k nearest, so e_l >= e_j, hence D_j <= (1 + eta) D_l with
# eta = 2*gamma_{d+2} + 4u + O(u^2) (the square root may round D_j and D_l
# to one e), and
#     s_j <= D_j + alpha*N_j <= (1 + eta)(t + alpha*N_l) + alpha*N_j
#         <= t + eta*|t| + (2 + eta)*alpha*(||q||^2 + max_r ||r||^2),
# to first order t + (4d + 8)*u*(|t| + qq + max rr).  The constant below is
# twice that, which also covers the second-order terms, the rounding of qq
# and rr against the true norms, and the few roundings of the margin and
# of t + margin themselves.
def _gram_margin(n_features):
    return 8 * (n_features + 2) * (np.finfo(float).eps / 2)


# Rounding margin of the screened log ratio, per node size n = n_L + n_R.
# Both forms take the same d, x and bandwidths h (the bits of
# ``silverman_bandwidth``) and approximate the real log ratio
#     L = log(S_L / (n_L h_L)) - log(S_R / (n_R h_R)),
#     S = sum_j exp(a_j),  a_j = -(x - d_j)^2 / (2 h^2) <= 0,
# so a row whose estimate lies farther than both forms' errors together from
# log(pl_upper) and log(pl_lower) (the same floats in both) falls on the same
# side of each in the exact form, and takes the same decision.  Assume numpy's
# exp, log and log1p and math.log each err by at most 4 ulp, a relative 8u
# with u = 2^-53 (numpy's own accuracy tests hold its float64 exp, log and
# log1p to 1 ulp), and let gamma_n = n*u / (1 - n*u).  To first order:
#  - each exponent errs by a few u relative: the screen's a_j(1 + delta_j)
#    has |delta_j| <= 6u (the difference, its square, h^2, -0.5 / h^2, the
#    product), and the exact form's 5u, plus u |a_j - M| for its shift by
#    its largest exponent M, so at most 6u |a_j| in either;
#  - the screen is trusted only where both branch sums are >= 2^-900 and
#    both h lie in [2^-100, 2^100].  As S <= n_b exp(M), the sum bound gives
#    |M| <= A = 900 ln 2 + ln n, and an exponent that under- or overflows in
#    either form errs by under 2^-600 absolutely or has a true term that
#    rounds to 0 (|t| >= 2^512 > 2^412 h);
#  - errors eta_j in the exponents move log S by at most the softmax-
#    weighted sum of |eta_j|, weights exp(a_j) / S <= exp(a_j - M), and
#    with |a_j| = |M| + (M - a_j) and y exp(-y) <= 1/e that is at most
#    6u (|M| + n_b / e) per branch, 6u (2A + n / e) for the ratio;
#  - the sums err by at most gamma_n (any order), the exponentials by 8u
#    each, plus an absolute few 2^-1074 per subnormal term against a sum of
#    at least 2^-900, and the screen's products s n h by 2u;
#  - the logs err by 8u times their result: the screen's two by at most
#    8u (1000 ln 2 + 2 ln n) each, as s n h lies in [2^-1000, n^2 2^100];
#    the exact form's log1p and log of the count by 8u ln n, and its
#    log(n h sqrt(2 pi)) by 8u (70 + ln n) (the sqrt(2 pi) cancels);
#  - the additions and final subtractions round relative to results below
#    2 (A + 700 + 2 ln n) in magnitude.
# That sums to about u (34000 + 130 ln n + 6.5 n) for both forms; the
# constant below is over twice that, which also covers the second-order
# terms (an exponent error scales its term by exp(eta_j), not 1 + eta_j).
def _kde_margin(n):
    return 16 * (np.finfo(float).eps / 2) * (5000 + 20 * math.log(n) + n)


def _screen(Q, R, k, work):
    """The first k of each row by (distance, column), from a value for every
    (query, reference) pair: the exact distance with one or two features,
    the Gram form qq + rr - 2 Q @ R.T with more.  Every column whose value
    is at most the row's k-th smallest (plus the Gram form's rounding
    margin) is a candidate, and the candidates' exact distances pick the
    first k in one stable sort per row."""
    m, n, n_features = len(Q), len(R), Q.shape[1]
    part = work[m * n:2 * m * n].reshape(m, n)
    gram = n_features > 2
    if gram:
        values = work[:m * n].reshape(m, n)
        qq = np.einsum("ij,ij->i", Q, Q)
        rr = np.einsum("ij,ij->i", R, R)
        np.matmul(Q, R.T, out=part)
        np.add(qq[:, None], rr, out=values)
        part *= 2.0
        values -= part
    else:
        values = distance_rows(Q, R, work)
    np.copyto(part, values)
    part.partition(k - 1, axis=1)
    bound = part[:, k - 1]
    if gram:
        bound = bound + _gram_margin(n_features) * (np.abs(bound) + qq + rr.max())
    # row-major, so qi ascends and rj ascends within it, and every row has
    # at least its k smallest (a flat index is several times faster than a
    # 2-d np.nonzero)
    flat = (values <= bound[:, None]).ravel().nonzero()[0]
    qi, rj = np.divmod(flat, n)
    dist = _pair_distances(Q, R, qi, rj, work) if gram else values.take(flat)
    # each row's candidates, padded with inf in the now free work buffer: a
    # stable sort keeps the column order among equal distances
    counts = np.bincount(qi, minlength=m)
    start = np.cumsum(counts) - counts
    width = counts.max()
    pad = work[:m * width].reshape(m, width)
    pad.fill(np.inf)
    pad[qi, np.arange(len(qi)) - start[qi]] = dist
    take = start[:, None] + np.argsort(pad, axis=1, kind="stable")[:, :k]
    return dist[take], rj[take]


def _kd_screen(Q, R, k, tree):
    """The k nearest from a KD tree query for k + 1 neighbours.  The rows
    whose k-th and (k+1)-th distances tie take full distance rows instead."""
    dist, cols = tree.query(Q, k=k + 1)
    tie = dist[:, k - 1] == dist[:, k]
    dist, cols = dist[:, :k], cols[:, :k]
    # the tree gives each row's hits nearest first, so only equal distances
    # may be out of row order
    if np.any(dist[:, 1:] == dist[:, :-1]):
        order = np.lexsort((cols, dist), axis=1)
        dist, cols = np.take_along_axis(dist, order, axis=1), np.take_along_axis(cols, order, axis=1)
    if np.any(tie):
        dist[tie], cols[tie] = k_nearest(Q[tie], R, k)
    return dist, cols


def k_nearest(Q, R, k, tree=None):
    """Each query row's k nearest reference rows and their distances, as two
    (rows, k) arrays ordered by (distance, reference row).

    Distances have the bits of ``distance_rows``, and nearest means the
    first k of ``np.lexsort((arange(len(R)), dist[i]))``: every distance
    below the k-th smallest, then the lowest rows at it.  k above len(R)
    takes every row.  ``tree`` (a ``kd_tree`` over R, so one or two
    features) answers the query, with ``_screen``'s full rows only for a tie
    at the k-th distance or when R holds no more than k rows.  Without a
    tree, every query takes ``_screen``: exact distances for one or two
    features, the Gram form for more.

    The queries are screened in ``row_blocks`` that all reuse one work
    buffer, so any number of rows may be asked at once."""
    m, n, n_features = len(Q), len(R), Q.shape[1]
    k = min(k, n)
    if tree is not None and k < n:
        return _kd_screen(Q, R, k, tree)
    if n_features <= 2:
        R = np.asfortranarray(R)  # distance_rows reads R by column
    blocks, size = row_blocks(m, n, SCREEN_CELLS)
    # the Gram form's exact distances need room for one row of features
    work = np.empty(max(size, n_features))
    dist, cols = np.empty((m, k)), np.empty((m, k), dtype=np.intp)
    for block in blocks:
        dist[block], cols[block] = _screen(Q[block], R, k, work)
    return dist, cols


class TreeClassifier:
    """Prepared state for classifying many points against one label tree."""

    def __init__(self, tree, train, features, cfg=None):
        self.tree = tree
        self.features = list(features)
        self.cfg = cfg or CompetitionConfig()
        X = feature_matrix(train.table, self.features)
        self.zstats = ZStats.fit(X, self.features)
        self.X = self.zstats.transform(X)
        y = train.label_values
        self.leaf = np.full(len(y), -1)  # each training row's leaf; -1 outside the tree
        for leaf, lab in enumerate(tree.leaf_names):
            of_label = y == lab
            if not np.any(of_label):
                raise DataError("label '%s' has zero training rows" % lab)
            self.leaf[of_label] = leaf
        self._warned_small_k = False
        self._bound = None  # each row's distance to its own label's nearest other row, built on first use

    def _outlier_threshold(self, R, in_node, kd):
        """The outlier_quantile of the distances from each node row R (the
        training rows in_node selects) to its nearest other row, 0.0 for a
        duplicate, with the bits of ``np.quantile`` over all of them.

        A node holds whole labels, so a row's distance to the nearest other
        row of its own label (inf for a one-row label) bounds it from above
        in every node, in the same bits.  The quantile reads order
        statistics j and j + 1 of n, j = floor((n - 1) q), so only the n - j
        largest (one more covers np.quantile's index rounding one lower).
        The rows of largest bound ask the node (its KD tree kd, if any) in
        doubling batches until that many exact distances reach every bound
        left; the bounds, the asked rows' replaced, then give the quantile."""
        q = self.cfg.outlier_quantile
        if self._bound is None:
            self._bound = np.full(len(self.X), np.inf)
            for leaf in range(len(self.tree.leaf_names)):
                rows = np.flatnonzero(self.leaf == leaf)
                if len(rows) > 1:
                    X = self.X[rows]
                    self._bound[rows] = k_nearest(X, X, 2, kd_tree(X))[0][:, 1]
        nn = self._bound[in_node]
        n = len(nn)
        need = n - math.floor((n - 1) * q) + 1
        order = np.argsort(nn)[::-1]
        asked, batch = 0, 2 * need + 16
        while asked < n:
            new = order[asked:asked + batch]
            unasked = nn[order[asked + batch]] if asked + batch < n else -np.inf
            nn[new] = k_nearest(R[new], R, 2, kd)[0][:, 1]
            asked += len(new)
            if np.count_nonzero(nn[order[:asked]] >= unasked) >= need:
                break
            batch = asked
        return float(np.quantile(nn, q))

    def competition(self, Z, node, near=None):
        """Decide one internal-node competition for each z-scored row of Z.

        Returns an int8 array of codes into ``DECISIONS``.  The k-nearest
        screen decides the outlier and dominance rules; only the rows still
        open get full distance rows, for the median (one partition, in the
        buffer's scratch) and the log ratio of the two branch KDEs, in row
        blocks that share one work buffer.  The ratio's screened estimate
        decides a row beyond ``_kde_margin`` of both thresholds, and the
        exact KDEs the rest.

        ``near``, if given, is a (distances, training rows) pair of (len(Z),
        k_star) arrays: each row's k* nearest training rows in the parent
        node, training row -1 where unknown.  A row whose k* all lie in this
        node keeps them: the node's rows are a subset of its parent's in the
        same order, so the parent's first k* by (distance, row) are also
        the node's, with the same distance bits.  The other rows are
        searched here, and the pair is filled in with this node's k*
        nearest.  A node of fewer than k* rows searches every row and fills
        in nothing, as every node below it holds fewer still."""
        tree, cfg = self.tree, self.cfg
        if tree.is_leaf(node):
            raise DataError("node %d is a leaf, nothing to compete" % node)
        in_node = np.isin(self.leaf, tree.members(node))
        R = self.X[in_node]
        is_left = np.isin(self.leaf[in_node], tree.members(tree.children(node)[0]))
        kd = kd_tree(R)
        k = min(cfg.k_star, len(R))
        if k < cfg.k_star and not self._warned_small_k:
            log.warning("only %d training rows at node %d, k* reduced from %d", len(R), node, cfg.k_star)
            self._warned_small_k = True
        if near is None or k < cfg.k_star:
            dist, nearest = k_nearest(Z, R, k, kd)
        else:
            dist, train_rows = near
            # each training row's column in R, -1 outside the node; the
            # spare last entry maps an unknown row (-1) outside too
            column = np.full(len(self.X) + 1, -1)
            column[:-1][in_node] = np.arange(len(R))
            nearest = column[train_rows]
            miss = np.flatnonzero((nearest < 0).any(axis=1))
            if len(miss):
                dist[miss], nearest[miss] = k_nearest(Z[miss], R, k, kd)
                train_rows[miss] = np.flatnonzero(in_node)[nearest[miss]]
        left_count = np.count_nonzero(is_left[nearest], axis=1)
        need = cfg.dominant_fraction * k - 1e-9
        decision = np.full(len(Z), STOP, dtype=np.int8)
        decision[k - left_count >= need] = RIGHT
        decision[left_count >= need] = LEFT
        if cfg.outlier_quantile is not None:
            decision[dist[:, 0] > self._outlier_threshold(R, in_node, kd)] = OUTLIER
        open_ = np.flatnonzero(decision == STOP)
        if not len(open_):
            return decision
        # left rows first, each branch in its own order: a branch's sample
        # is then a column slice of the distance rows (with one or two
        # features column-major, so each block reads contiguous columns)
        R = R[np.argsort(~is_left, kind="stable")]
        if R.shape[1] <= 2:
            R = np.asfortranarray(R)
        n_left = np.count_nonzero(is_left)
        upper, lower = math.log(cfg.pl_upper), math.log(cfg.pl_lower)
        margin = _kde_margin(len(R))
        blocks, size = row_blocks(len(open_), len(R), row_cells(R.shape[1]))
        work = np.empty(size)
        for block in blocks:
            rows = open_[block]
            d = distance_rows(Z[rows], R, work)
            m = median_rows(d, work)
            log_ratio = _screened_log_ratio(d, m, n_left, work)
            # the exact KDEs for the rows the estimate may not decide (NaN
            # fails both tests)
            exact = ~((np.abs(log_ratio - upper) > margin) & (np.abs(log_ratio - lower) > margin))
            if np.any(exact):
                log_ratio[exact] = log_gaussian_kde(d[exact, :n_left], m[exact]) - \
                    log_gaussian_kde(d[exact, n_left:], m[exact])
            if cfg.pl_lower == cfg.pl_upper:
                # degenerate band: force a winner at every node
                decision[rows] = np.where(log_ratio >= upper, LEFT, RIGHT)
            else:
                decision[rows] = np.where(log_ratio > upper, LEFT, np.where(log_ratio < lower, RIGHT, STOP))
        return decision

    def classify(self, X_raw):
        """Descend from the root with every row of X_raw, one tree level at a
        time.  Returns each row's stop node, its outlier flag, and one (node,
        rows, decisions) step per competition in the order they ran.

        Each row's k* nearest training rows go down with it, from a
        competition to the child it chose, so a row is searched again only
        where they do not all lie in the child (see ``competition``)."""
        tree = self.tree
        Z = self.zstats.transform(X_raw)
        stop = np.full(len(Z), tree.root)
        outlier = np.zeros(len(Z), dtype=bool)
        steps = []
        # a node of fewer than k* rows never reads near, so k* above the
        # training rows needs no wider arrays
        k = min(self.cfg.k_star, len(self.X))
        near = (np.empty((len(Z), k)), np.full((len(Z), k), -1))
        level = [(tree.root, np.arange(len(Z)), near)]
        while level:
            next_level = []
            for node, idx, near in level:
                stop[idx] = node
                if tree.is_leaf(node):
                    continue
                decision = self.competition(Z[idx], node, near)
                steps.append((node, idx, decision))
                outlier[idx] = decision == OUTLIER
                for child, side in zip(tree.children(node), (LEFT, RIGHT)):
                    chosen = decision == side
                    if np.any(chosen):
                        next_level.append((child, idx[chosen], (near[0][chosen], near[1][chosen])))
            level = next_level
        return stop, outlier, steps

    def classify_rows(self, table):
        return self.classify(feature_matrix(table, self.features))


def set_name(labels, universe):
    """Display name for a predicted label set.

    Labels concatenate ("be") when every label of the universe is one
    character; otherwise they join with "+", so that {a, b} and {ab} never
    share a name.  The full label space is "all" and the empty set "none"."""
    labels = sorted(str(l) for l in labels)
    universe = [str(u) for u in universe]
    if not labels:
        return "none"
    if set(labels) == set(universe):
        return "all"
    return ("" if all(len(u) == 1 for u in universe) else "+").join(labels)


@dataclass
class Category:
    key: tuple          # one sorted predicted label tuple per chain link, deepest last
    name: str           # link set names joined with "-", no star
    certain: bool
    counts: np.ndarray  # per true label
    rows: np.ndarray    # member row ids

    @property
    def labels(self):
        """The deepest link's predicted label set."""
        return self.key[-1]

    @property
    def display_name(self):
        return self.name if self.certain else "*" + self.name

    @property
    def total(self):
        return int(self.counts.sum())


@dataclass
class CategoryTable:
    """Predicted categories tabulated against true labels: a predictive map,
    or one depth of a feature chain."""

    true_labels: list
    categories: list

    def total(self):
        return int(sum(cat.total for cat in self.categories))

    def singleton_fraction(self):
        total = self.total()
        ones = sum(cat.total for cat in self.categories if len(cat.labels) == 1)
        return ones / total if total else 0.0

    def per_label_proportions(self):
        """Column-wise proportions per true label (pie chart data)."""
        out = {}
        for i, lab in enumerate(self.true_labels):
            col_total = sum(int(cat.counts[i]) for cat in self.categories)
            out[lab] = {
                cat.display_name: int(cat.counts[i]) / col_total
                for cat in self.categories if cat.counts[i] > 0
            } if col_total else {}
        return out

    def row_names(self, n):
        """The display name of each of n rows' category, "" for a row in none."""
        names = [""] * n
        for cat in self.categories:
            name = cat.display_name
            for row in cat.rows.tolist():
                names[row] = name
        return names

    def to_csv_text(self):
        rows = [["category"] + [str(l) for l in self.true_labels]]
        rows += [[cat.display_name] + [int(c) for c in cat.counts] for cat in self.categories]
        return csv_text(rows)

    def to_json_dict(self):
        return {
            "true_labels": [str(l) for l in self.true_labels],
            "categories": [
                {
                    "name": cat.display_name,
                    "certain": cat.certain,
                    "counts": {str(l): int(c) for l, c in zip(self.true_labels, cat.counts)},
                }
                for cat in self.categories
            ],
        }


def _category_sort_key(key):
    # per link: singletons first, then growing set size, empty (outlier) last
    return tuple((len(labels) == 0, len(labels), labels) for labels in key)


def tabulate_predictions(keys_per_row, rows, true_values, true_labels, universe):
    """Group rows by category key and count them against true labels.

    ``keys_per_row[row]`` holds one sorted predicted label tuple per chain
    link; a predictive map is the one-link case.  A category whose members
    carry a single true label is certain; categories mixing true labels are
    uncertain and displayed with a '*' prefix; two that print alike are a
    DataError."""
    label_pos = {lab: i for i, lab in enumerate(true_labels)}
    buckets = {}
    for row in rows:
        counts, members = buckets.setdefault(keys_per_row[row], (np.zeros(len(true_labels), dtype=int), []))
        counts[label_pos[true_values[row]]] += 1
        members.append(row)
    categories = []
    for key in sorted(buckets, key=_category_sort_key):
        counts, members = buckets[key]
        categories.append(Category(
            key=key,
            name="-".join(set_name(labels, universe) for labels in key),
            certain=int(np.count_nonzero(counts)) == 1,
            counts=counts,
            rows=np.asarray(members, dtype=int),
        ))
    keys_by_name = {}
    for cat in categories:
        if keys_by_name.setdefault(cat.name, cat.key) != cat.key:
            raise DataError("predicted label sets %s and %s both print as '%s'"
                            % (keys_by_name[cat.name], cat.key, cat.name))
    return CategoryTable(true_labels=list(true_labels), categories=categories)


def predicted_sets(tree, stop, outlier):
    """Each row's predicted label set: its stop node's labels, looked up once
    per node, or () where the outlier screen stopped it."""
    labels = {node: tree.node_labels(node) for node in set(stop.tolist())}
    return [() if out else labels[node] for node, out in zip(stop.tolist(), outlier.tolist())]


def predictive_map(test, tree, train, features, cfg=None):
    """Classify every test row and tabulate predicted sets against true labels.

    Returns the one-link CategoryTable and classify's (stop, outlier, steps)."""
    descent = TreeClassifier(tree, train, features, cfg).classify_rows(test.table)
    keys = [(labels,) for labels in predicted_sets(tree, *descent[:2])]
    table = tabulate_predictions(keys, range(len(keys)), test.label_values, list(test.labels), tree.leaf_names)
    return table, descent
