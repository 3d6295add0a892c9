"""Label embedding tree: a binary hierarchy of class labels built from
empirical distance dominance.

For every triple of labels, point triples are sampled (one training point
per label, uniform with replacement, features z-scored on train) and the
strictly smallest of the three pairwise Euclidean distances marks its label
pair as dominated by the other two.  The tally of each triple's three pairs
gives each label pair a relative distance: the fraction of its exposures in
which some other pair of the triple was the minimum, that is, in which it
dominated.  Labels whose pair is rarely a dominator sit close together.
Average-linkage clustering of the resulting label-by-label matrix yields
the tree, an ``hclust.Dendrogram`` whose leaf names are the labels.

Sampling is the costly step, and it is seeded, so it runs once per tree: the
``let`` command builds its tree from the dominance tally it writes, and
``tree_from_training`` is the route for callers that need only the tree.

The sampler draws as a per-triple loop would: triple t draws its three
labels' rows in turn from the stream of ``root.spawn(n)[t]``, round one read
from raw PCG64 words by numpy's Lemire rule (``Generator.integers`` for
redraws and one-row labels).  ``spawn_states`` hashes the seed words of all
n streams at once, 32 bytes per triple, as numpy's SeedSequence would one
child at a time.  The sampler measures differently.  A label pair's samples
get their squared-distance screens ||x||^2 + ||y||^2 - 2 x.y from one Gram
block (or, where it would far outnumber them, from gathered rows), and a
triple is decided once, when its last pair is screened: a sample whose
smallest screen leads the other two by more than the triple's rounding
margin has that strict minimum in its exact distances too.  Only the other
samples get exact distances, and only exact ties redraw, from their
triple's stream after its first round: the counts keep every bit.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import ZStats, csv_text, feature_matrix
from .errors import ComputationError, DataError, check_kind
from .hclust import agglomerate
from .predictive_map import _gram_margin

MAX_TIE_ROUNDS = 100


@dataclass
class DominanceMatrix:
    labels: list
    triples: np.ndarray   # (C(L,3), 3) label indices x < y < z, in itertools.combinations order
    tally: np.ndarray     # tally[t]: samples in which pair xy, xz, yz of triple t was the strict minimum
    samples_per_triplet: int

    @property
    def exposure(self):
        # each pair sits in L-2 triples, each sampled samples_per_triplet times
        return (len(self.labels) - 2) * self.samples_per_triplet

    def to_csv_text(self):
        """``csv_text`` of the header and one row per triple, a column at a time."""
        quoted = [csv_text([[label, ""]])[:-2] for label in self.labels]   # csv quotes a lone empty field
        columns = [[quoted[i] for i in col] for col in self.triples.T.tolist()]
        columns += [list(map(str, col)) for col in self.tally.T.tolist()]
        return "".join(",".join(row) + "\n" for row in [("x", "y", "z", "xy", "xz", "yz"), *zip(*columns)])


# A label pair's screen values come from one Gram block X_a @ X_b.T when the
# block holds at most this many entries per sample that reads it, and from
# dot products of gathered rows otherwise (a measured crossover).
BLOCK_ENTRIES_PER_SAMPLE = 16

# the screen's mark on a sample whose exact distances must decide it
UNDECIDED = 3

# at the 100 000 cap on let.samples_per_triplet, one triple's words and products take about 5 MB
LEMIRE_CHUNK = 2 ** 15   # round one maps about this many draws at a time: whole triples, at least one

# positions in a triple x < y < z of the labels of its slots 0 (x, y), 1 (x, z) and 2 (y, z)
SLOT_POSITIONS = np.array([[0, 1], [0, 2], [1, 2]])


# numpy's SeedSequence hash constants: hashmix of entropy (A) and of output (B), and mix
INIT_A, MULT_A, INIT_B, MULT_B, MIX_L, MIX_R = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715


def spawn_states(root, n):
    """The PCG64 seed words of ``root.spawn(n)``, an (n, 4) uint64 array: numpy's
    SeedSequence hash (``mix_entropy``, then ``generate_state(4, np.uint64)``)
    on uint32 arrays, one lane per child.  Only the last spawn-key word, t,
    differs between lanes; arrays wrap silently where numpy scalars warn."""
    def words(ints):   # each int little-endian, 0 as one word
        return [v >> s & 0xFFFFFFFF for v in map(int, ints) for s in range(0, max(v.bit_length(), 1), 32)]

    def hashmix(x, h, mult):   # h: the one-word hash constant, advanced in place
        x = x ^ np.uint32(h[0])
        h[0] = h[0] * mult & 0xFFFFFFFF
        x = x * np.uint32(h[0])
        return x ^ (x >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(MIX_L) - y * np.uint32(MIX_R)
        return out ^ (out >> np.uint32(16))

    P, run = root.pool_size, words(np.ravel(root.entropy))
    entropy = [np.array([w], dtype=np.uint32) for w in run + [0] * (P - len(run)) + words(root.spawn_key)]
    entropy.append(np.arange(n, dtype=np.uint32))
    h = [INIT_A]
    pool = [hashmix(w, h, MULT_A) for w in entropy[:P]]
    for src, dst in itertools.permutations(range(P), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src], h, MULT_A))
    for w, dst in itertools.product(entropy[P:], range(P)):
        pool[dst] = mix(pool[dst], hashmix(w, h, MULT_A))
    h = [INIT_B]
    state = np.stack([hashmix(pool[i % P], h, MULT_B) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Child:
    """A ``spawn_states`` row as PCG64 reads a seed sequence; registered as
    an ``ISeedSequence`` when the sampler runs, so import skips numpy.random."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype):   # PCG64 asks for 4 uint64 words
        return self.state


def _draw(rng, sizes, m):
    """m local row indices into each label of a triple, in draw order."""
    return [rng.integers(0, size, m) for size in sizes]


def _round_one(states, sizes, T):
    """Round one, (n, 3, T) row indices as ``_draw`` gives them, of triples
    with ``spawn_states`` rows ``states`` and label sizes ``sizes`` (n, 3).  numpy maps
    each 32-bit half of a PCG64 word, low half first, to (u * size) >> 32 and
    redraws while the low 32 bits of u * size fall below (2^32 - size) % size
    (Lemire's rule); a triple that would redraw goes through ``_draw``."""
    sizes = np.asarray(sizes, dtype=np.uint64)
    out = np.empty((len(sizes), 3, T), dtype=np.min_scalar_type(sizes.max(initial=0)))
    redraw = (sizes == 1).any(axis=1)   # numpy draws nothing for a one-row label
    # uint32 products wrap to the low 32 bits of u * size
    size32, floor32 = (v.astype(np.uint32)[..., None] for v in (sizes, (2 ** 32 - sizes) % sizes))
    step = max(1, LEMIRE_CHUNK // (3 * T))
    for i in range(0, len(sizes), step):
        words = np.stack([np.random.PCG64(_Child(s)).random_raw(-(-3 * T // 2)) for s in states[i:i + step]])
        u = words.astype("<u8", copy=False).view("<u4")[:, :3 * T].reshape(-1, 3, T)
        redraw[i:i + step] |= (u * size32[i:i + step] < floor32[i:i + step]).any(axis=(1, 2))
        m = u * sizes[i:i + step, :, None]
        m >>= 32
        out[i:i + step] = m
    for i in np.flatnonzero(redraw).tolist():
        out[i] = _draw(np.random.default_rng(_Child(states[i])), sizes[i].tolist(), T)
    return out


def _exact_order(pa, pb, pc):
    """The dominated slot (argmin of the three exact distances) of each
    sample, and whether that minimum is unique."""
    D = np.column_stack([np.linalg.norm(p - q, axis=1) for p, q in [(pa, pb), (pa, pc), (pb, pc)]])
    unique_min = (D == D.min(axis=1)[:, None]).sum(axis=1) == 1
    return np.argmin(D, axis=1), unique_min


def _pair_screens(Xa, Xb, sqa, sqb, ia, ib):
    """The screens fl(fl(sqa + sqb) - 2 x.y) of the row pairs (Xa[ia], Xb[ib]),
    x.y from the Gram block or gathered rows (see BLOCK_ENTRIES_PER_SAMPLE).
    ia and ib may be as narrow as uint8, so the block index is widened first."""
    if len(Xa) * len(Xb) > BLOCK_ENTRIES_PER_SAMPLE * ia.size:
        dot = np.einsum("ij,ij->i", Xa.take(ia.ravel(), axis=0), Xb.take(ib.ravel(), axis=0)).reshape(ia.shape)
    else:
        dot = (Xa @ Xb.T).take(ia.astype(np.intp) * len(Xb) + ib)
    return (sqa.take(ia) + sqb.take(ib)) - 2 * dot


def _decide(s0, s1, s2, margin):
    """The slot of each sample's smallest screen, or UNDECIDED unless the second
    smallest exceeds it by more than margin and the float32 rounding of both."""
    s1, s2 = s1.astype(float), s2.astype(float)
    low01 = np.minimum(s0, s1)
    low = np.minimum(low01, s2)
    second = np.maximum(low01, np.minimum(np.maximum(s0, s1), s2))
    decided = second - low > margin + (np.abs(low) + np.abs(second)) * 2.0 ** -23
    return np.where(decided, np.add(s0 > low, s2 == low, dtype=np.uint8), UNDECIDED)


def _screen(X, start, triples, draws):
    """The screen's decision on every round-one sample: a (triples, T) array
    holding the slot of the sample's smallest screen, or UNDECIDED where its
    exact distances must decide it.  ``draws`` is round one, (triples, 3, T)
    local row indices.

    Pairs are visited by first label, then by second, last first.  So when
    pair (x, y) opens the triples x < y < z as slot 0, their (x, z) and (y, z)
    screens are held in float32, which rounds f by at most |f| 2^-23, or
    2^-149 below its normal range: (y, z) for every triple, (x, z) for those
    of first label x.  A triple's margin is twice _gram_margin times the sum
    of its labels' largest squared norms, above each sample's own.  By the
    bounds derived there, two screens further apart give the exact distances,
    as ``_exact_order`` computes them, the same strict order (a pair's
    squared norms sum to at most that total, a squared distance to at most
    twice their sum); 2^-148 covers float32's and products' underflow.  So a
    decided sample has a strict exact minimum in its slot, any other gets
    exact distances, and any valid screen gives the same tally."""
    L, T = len(start) - 1, draws.shape[2]
    sq = np.einsum("ij,ij->i", X, X)
    margin = 2 * _gram_margin(X.shape[1]) * np.maximum.reduceat(sq, start[:-1])[triples].sum(axis=1) + 2.0 ** -148
    Xs, sqs = np.split(X, start[1:-1]), np.split(sq, start[1:-1])   # by label
    # each pair's (triple, slot) entries, 3 * triple + slot, in triple order:
    # the triples it closes (slot 2), passes (slot 1), then opens (slot 0)
    entries = np.argsort((triples[:, [0, 0, 1]] * L + triples[:, [1, 2, 2]]).ravel(), kind="stable").reshape(-1, L - 2)
    best = np.empty((len(triples), T), dtype=np.uint8)
    held = np.empty(best.shape, dtype=np.float32)   # (y, z) screens
    passed = np.empty((math.comb(L - 1, 2), T), dtype=np.float32)   # (x, z) screens, from x's first triple
    for (a, b), e in zip(reversed(list(itertools.combinations(range(L), 2))), entries[::-1]):
        t, slot = np.divmod(e, 3)
        s = _pair_screens(Xs[a], Xs[b], sqs[a], sqs[b], *draws[t[:, None], SLOT_POSITIONS[slot]].transpose(1, 0, 2))
        first = math.comb(L, 3) - math.comb(L - a, 3)
        held[t[:a]], passed[t[a:b - 1] - first] = s[:a], s[a:b - 1]
        i, j = t[-1] + 2 + b - L, t[-1] + 1   # the triples (a, b, z) it opens
        best[i:j] = _decide(s[b - 1:], passed[i - first:j - first], held[i:j], margin[i:j, None])
    return best


def sample_triplet_orderings(train, features, samples_per_triplet=200, seed=0):
    """Tally, for every label triple, how often each of its three pairs was
    the strict minimum over sampled point triples.

    Exact distance ties discard the sample and redraw (bounded rounds); a
    persistent tie is a computation error.  Each label triple consumes its
    own spawned random stream, so results do not depend on evaluation order.
    samples_per_triplet must be an integer (ConfigError) of at least 1
    (DataError).
    """
    labels = list(train.labels)
    if len(labels) < 3:
        raise DataError("need at least 3 labels to sample triples, have %d" % len(labels))
    T = int(check_kind("samples_per_triplet", samples_per_triplet, int))
    if T < 1:
        raise DataError("samples_per_triplet must be >= 1")
    rows = [train.rows_with_label(lab) for lab in labels]
    for lab, r in zip(labels, rows):
        if len(r) == 0:
            raise DataError("label '%s' has zero training rows" % lab)
    X = feature_matrix(train.table, features)
    zstats = ZStats.fit(X, features)
    X = X[np.concatenate(rows)]
    X = zstats.transform(X)   # z-scored; label i's rows are X[start[i]:start[i + 1]]
    sizes = [len(r) for r in rows]
    start = np.concatenate([[0], np.cumsum(sizes)])

    L = len(labels)
    triples = np.array(list(itertools.combinations(range(L), 3)))
    triple_sizes = np.array(sizes)[triples]
    # triple t's stream is that of root.spawn(len(triples))[t]
    np.random.bit_generator.ISeedSequence.register(_Child)
    states = spawn_states(np.random.SeedSequence(seed), len(triples))
    draws = _round_one(states, triple_sizes, T)
    best = _screen(X, start, triples, draws)
    tally = np.stack([np.count_nonzero(best == slot, axis=1) for slot in range(3)], axis=1)
    ut, uk = np.nonzero(best == UNDECIDED)
    local = draws[ut, :, uk]
    slot, unique_min = _exact_order(*(X[start[triples[ut, j]] + local[:, j]] for j in range(3)))
    tally += np.bincount(3 * ut[unique_min] + slot[unique_min], minlength=tally.size).reshape(-1, 3)
    # exact ties redraw from their triple's stream, after its round one
    ties = np.bincount(ut[~unique_min], minlength=len(triples))
    for t in np.flatnonzero(ties).tolist():
        rng = np.random.default_rng(_Child(states[t]))
        _draw(rng, triple_sizes[t], T)
        pending = ties[t]
        for _ in range(MAX_TIE_ROUNDS - 1):
            idx = _draw(rng, triple_sizes[t], pending)
            slot, unique_min = _exact_order(*(X[start[i] + j] for i, j in zip(triples[t], idx)))
            tally[t] += np.bincount(slot[unique_min], minlength=3)
            pending -= np.count_nonzero(unique_min)
            if pending == 0:
                break
        else:
            raise ComputationError(
                "persistent distance ties while sampling labels (%s, %s, %s)"
                % tuple(labels[i] for i in triples[t])
            )

    return DominanceMatrix(labels=labels, triples=triples, tally=tally, samples_per_triplet=T)


def dominance_to_distance(dm):
    """Label-by-label relative distance matrix: each pair's count of samples
    in which another pair of its triple was the minimum, summed over its
    triples and divided by the exposure (L-2)*T, so every value lies in
    [0, 1]."""
    L = len(dm.labels)
    if L < 3:
        raise DataError("dominance tally needs at least 3 labels")
    dominator = dm.tally.sum(axis=1, keepdims=True) - dm.tally
    sums = np.zeros((L, L), dtype=np.int64)
    np.add.at(sums, (dm.triples[:, [0, 0, 1]], dm.triples[:, [1, 2, 2]]), dominator)
    out = sums / dm.exposure
    return out + out.T


def build_label_tree(distance, labels):
    """Average-linkage tree over a label-by-label relative distance matrix: a
    Dendrogram whose leaf names are the labels."""
    labels = list(labels)
    distance = np.asarray(distance, dtype=float)
    if distance.shape != (len(labels), len(labels)):
        raise DataError("distance matrix shape does not match labels")
    tree = agglomerate(distance)
    tree.leaf_names = labels
    return tree


def tree_from_training(train, features, samples_per_triplet=200, seed=0):
    """The label tree of training data on the given features.

    One or two labels skip dominance sampling: the tree is then trivially a
    single leaf or a single join.
    """
    labels = list(train.labels)
    for lab in labels:
        if len(train.rows_with_label(lab)) == 0:
            raise DataError("label '%s' has zero training rows" % lab)
    if len(labels) < 3:
        return build_label_tree(1.0 - np.eye(len(labels)), labels)
    dm = sample_triplet_orderings(train, features, samples_per_triplet=samples_per_triplet, seed=seed)
    return build_label_tree(dominance_to_distance(dm), labels)
