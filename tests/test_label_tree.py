"""Dominance sampling tallies and the label tree built from them."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ceda.label_tree
from ceda.dataset import Column, DataTable, LabeledDataset, ZStats, csv_text, feature_matrix, synth_generate
from ceda.errors import ComputationError, ConfigError, DataError
from ceda.label_tree import (
    LEMIRE_CHUNK,
    MAX_TIE_ROUNDS,
    UNDECIDED,
    DominanceMatrix,
    _Child,
    _pair_screens,
    _round_one,
    _screen,
    build_label_tree,
    dominance_to_distance,
    sample_triplet_orderings,
    spawn_states,
    tree_from_training,
)


def clouds(centers, sd=0.1, n=40, seed=0):
    return synth_generate(
        "gauss-clouds", {"centers": centers, "sd": sd, "n_per_label": n}, seed=seed
    )


THREE = [[0, 0], [1, 0], [10, 10]]


# --- tally invariants ----------------------------------------------------


def test_counts_total_is_two_per_sample():
    ds = clouds(THREE)
    dm = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=50, seed=1)
    # one triple, 50 samples, each sample charges the two non-smallest pairs
    assert dm.triples.tolist() == [[0, 1, 2]]
    assert dm.tally.sum() == 50
    d = dominance_to_distance(dm)
    assert np.round(np.triu(d) * dm.exposure).sum() == 2 * 50
    assert np.all(np.diag(d) == 0)
    assert dm.exposure == 50


def test_counts_total_with_four_labels():
    ds = clouds([[0, 0], [4, 0], [0, 4], [4, 4]], sd=0.5, n=25, seed=3)
    dm = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=30, seed=2)
    assert dm.triples.tolist() == [list(t) for t in itertools.combinations(range(4), 3)]
    assert dm.tally.dtype == np.int64
    assert np.all(dm.tally.sum(axis=1) == 30)
    assert dm.exposure == 2 * 30
    d = dominance_to_distance(dm)
    assert np.round(np.triu(d) * dm.exposure).sum() == 2 * 30 * 4  # C(4,3) triples
    assert np.all(d <= 1)


def test_same_seed_reproduces_counts():
    ds = clouds(THREE)
    a = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=40, seed=9)
    b = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=40, seed=9)
    assert np.array_equal(a.tally, b.tally)


def test_different_seed_changes_counts():
    # the tally is a coarse statistic, so two seeds can tie by
    # chance; require variation somewhere across several seeds instead
    ds = clouds([[0, 0], [0.5, 0], [1, 0]], sd=0.5)
    results = [
        sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=60, seed=s).tally
        for s in range(1, 7)
    ]
    assert any(not np.array_equal(results[0], r) for r in results[1:])


def test_close_pair_is_rarely_a_dominator():
    ds = clouds(THREE, n=60, seed=5)
    dm = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=200, seed=7)
    d = dominance_to_distance(dm)
    i, j, k = 0, 1, 2  # labels a, b, c
    assert d[i, j] < d[i, k]
    assert d[i, j] < d[j, k]


def test_requires_three_labels_and_rows():
    two = clouds([[0, 0], [5, 5]])
    with pytest.raises(DataError, match="at least 3 labels"):
        sample_triplet_orderings(two, ["f0", "f1"])
    three = clouds(THREE)
    with pytest.raises(DataError, match="samples_per_triplet"):
        sample_triplet_orderings(three, ["f0", "f1"], samples_per_triplet=0)


@pytest.mark.parametrize("value", [2.7, True])
def test_samples_per_triplet_must_be_an_integer(value):
    with pytest.raises(ConfigError, match="samples_per_triplet must be an integer"):
        sample_triplet_orderings(clouds(THREE), ["f0", "f1"], samples_per_triplet=value)


def test_persistent_ties_raise():
    # three labels sharing one identical point: all distances are exactly 0
    t = DataTable([
        Column("x", "continuous", np.array([2.0, 2.0, 2.0])),
        Column("label", "categorical", np.array(["a", "b", "c"], dtype=object)),
    ])
    ds = LabeledDataset(t, "label")
    with pytest.raises(ComputationError, match="ties"):
        sample_triplet_orderings(ds, ["x"], samples_per_triplet=5, seed=0)


# --- the screened sampler against the per-triple loop ----------------------


def reference_orderings(train, features, samples_per_triplet, seed):
    """The per-triple sampler the screen replaced: every sample's three
    exact distances, ties redrawn in rounds from the triple's stream.
    Returns the (triples, 3) tally."""
    labels = list(train.labels)
    T = samples_per_triplet
    rows = {lab: train.rows_with_label(lab) for lab in labels}
    X = feature_matrix(train.table, features)
    X = ZStats.fit(X).transform(X)
    tallies = []
    triples = list(itertools.combinations(range(len(labels)), 3))
    streams = np.random.SeedSequence(seed).spawn(len(triples))
    for t_idx, (a, b, c) in enumerate(triples):
        rng = np.random.default_rng(streams[t_idx])
        ra, rb, rc = rows[labels[a]], rows[labels[b]], rows[labels[c]]
        dominated = np.full(T, -1, dtype=int)
        pending = np.arange(T)
        for _ in range(MAX_TIE_ROUNDS):
            m = len(pending)
            pa = X[ra[rng.integers(0, len(ra), m)]]
            pb = X[rb[rng.integers(0, len(rb), m)]]
            pc = X[rc[rng.integers(0, len(rc), m)]]
            D = np.column_stack([
                np.linalg.norm(pa - pb, axis=1),
                np.linalg.norm(pa - pc, axis=1),
                np.linalg.norm(pb - pc, axis=1),
            ])
            mins = D.min(axis=1)
            unique_min = (D == mins[:, None]).sum(axis=1) == 1
            dominated[pending[unique_min]] = np.argmin(D[unique_min], axis=1)
            pending = pending[~unique_min]
            if len(pending) == 0:
                break
        if len(pending):
            raise ComputationError(
                "persistent distance ties while sampling labels (%s, %s, %s)"
                % (labels[a], labels[b], labels[c])
            )
        tallies.append(np.bincount(dominated, minlength=3))
    return np.array(tallies)


@st.composite
def sampling_problems(draw):
    """3-9 labels of 1-40 rows in shuffled order, 1-40 features, and T.

    Rows are continuous, or on a grid of one to three levels per feature
    (a single level makes every distance 0, so ties persist), and may be
    copies of a few rows, so that screens fail to decide, exact distances
    tie and redraw rounds run.  With T up to 12, label pairs fall on both
    sides of the block/gather crossover, and blocks on both sides of the
    block-sized sums.  The screen decides the triples of one first label at
    a time, in groups of 1 to 28 triples."""
    n_labels = draw(st.integers(3, 9))
    sizes = draw(st.lists(st.integers(1, 40), min_size=n_labels, max_size=n_labels))
    n_features = draw(st.integers(1, 40))
    levels = draw(st.sampled_from([None, 1, 2, 3]))
    copies_of = draw(st.sampled_from([None, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(sizes)
    if levels is None:
        X = rng.standard_normal((n, n_features)) * rng.uniform(0.1, 100.0, n_features)
    else:
        X = rng.integers(0, levels, (n, n_features)) * rng.uniform(0.5, 3.0, n_features)
    if copies_of is not None:
        X = X[rng.integers(0, min(copies_of, n), n)]
    return (*shuffled_labels(X, sizes, rng), draw(st.integers(1, 12)), draw(st.integers(0, 2 ** 32 - 1)))


def shuffled_labels(X, sizes, rng):
    """A LabeledDataset of X's rows, the first sizes[0] labelled a, the
    next sizes[1] b and so on, in shuffled order; and its feature names."""
    names = np.repeat(np.array(list("abcdefghi"[:len(sizes)]), dtype=object), sizes)
    order = rng.permutation(len(X))
    columns = [Column("f%d" % j, "continuous", X[order, j]) for j in range(X.shape[1])]
    train = LabeledDataset(DataTable(columns + [Column("label", "categorical", names[order])]), "label")
    return train, [c.name for c in columns]


def one_row_label(T):
    """Four labels, one of a single row: the triples holding it draw round
    one through ``_draw``, the others from raw words."""
    rng = np.random.default_rng(T)
    return (*shuffled_labels(rng.standard_normal((20, 3)), [6, 1, 9, 4], rng), T, 7)


def three_labels(T):
    """Three labels: one triple, the screen's only first-label group."""
    rng = np.random.default_rng(T)
    return (*shuffled_labels(rng.standard_normal((15, 4)), [5, 4, 6], rng), T, 3)


def one_row_label_last(T):
    """Seven labels, the last of a single row: the screen visits its pairs
    first, and its triples draw round one through ``_draw``."""
    rng = np.random.default_rng(T)
    return (*shuffled_labels(rng.standard_normal((40, 3)), [6, 9, 4, 5, 8, 7, 1], rng), T, 11)


def round_one_in_chunks():
    """Six labels, one of a single row, and T at which round one maps three
    triples per chunk: its one call spans seven chunks, and the triples
    holding the one-row label fall back to ``_draw`` between them."""
    T = LEMIRE_CHUNK // 9
    rng = np.random.default_rng(T)
    return (*shuffled_labels(rng.standard_normal((30, 3)), [6, 1, 9, 4, 5, 5], rng), T, 7)


def outcome(sampler, train, features, T, seed):
    try:
        return sampler(train, features, T, seed)
    except ComputationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=sampling_problems())
@example(problem=one_row_label(5))
@example(problem=one_row_label(1))
@example(problem=round_one_in_chunks())
@example(problem=three_labels(9))
@example(problem=one_row_label_last(6))
def test_screened_sampler_matches_the_per_triple_loop(problem):
    train, features, T, seed = problem
    want = outcome(reference_orderings, train, features, T, seed)
    got = outcome(lambda *args: sample_triplet_orderings(*args).tally, train, features, T, seed)
    if isinstance(want, str):
        assert isinstance(got, str) and got == want
    else:
        assert np.array_equal(got, want)


def wide_labels_screen(n_labels, rows, T, seed=0):
    """``_screen``'s inputs on the wide-labels geometry: n_labels Gaussian
    clouds of ``rows`` rows in 32 features, centres drawn N(0, 1.5^2), sd 1,
    z-scored; and T random round-one draws per triple."""
    rng = np.random.default_rng(seed)
    X = np.repeat(rng.normal(0.0, 1.5, (n_labels, 32)), rows, axis=0) + rng.standard_normal((n_labels * rows, 32))
    triples = np.array(list(itertools.combinations(range(n_labels), 3)))
    draws = rng.integers(0, rows, (len(triples), 3, T)).astype(np.min_scalar_type(rows))
    return ZStats.fit(X).transform(X), np.arange(n_labels + 1) * rows, triples, draws


def test_screen_leaves_only_float32_near_ties_undecided():
    # a valid but loose margin would send samples to the exact distances:
    # the tally would not change, only the time.  The held screens are
    # float32, so a sample whose two smallest squared distances lie within
    # 2^-21 of each other may stay undecided (one of these 101 200 does)
    X, start, triples, draws = wide_labels_screen(24, 40, 50)
    best = _screen(X, start, triples, draws)
    assert best.shape == (2024, 50) and best.max() <= UNDECIDED
    t, k = np.nonzero(best == UNDECIDED)
    points = [X[start[triples[t, j]] + draws[t, j, k]] for j in range(3)]
    d2 = np.sort([((points[i] - points[j]) ** 2).sum(axis=1) for i, j in [(0, 1), (0, 2), (1, 2)]], axis=0)
    assert len(t) <= 2
    assert np.all(d2[1] - d2[0] <= d2[1] * 2.0 ** -21)


@pytest.mark.parametrize("m", [5, 400])
def test_pair_screens_index_narrow_draws_without_wrapping(m):
    # 40-row labels keep round one in uint8 and a block index a * 40 + b
    # passes 255: under numpy 1.x's value-based casting it would wrap
    # unless widened.  m = 5 gathers rows, m = 400 takes the Gram block
    rng = np.random.default_rng(m)
    Xa, Xb = rng.standard_normal((40, 32)), rng.standard_normal((40, 32))
    ia, ib = rng.integers(0, 40, (2, 3, m)).astype(np.uint8)
    sqa, sqb = np.einsum("ij,ij->i", Xa, Xa), np.einsum("ij,ij->i", Xb, Xb)
    want = (sqa[ia] + sqb[ib]) - 2 * np.einsum("ijk,ijk->ij", Xa[ia], Xb[ib])
    np.testing.assert_allclose(_pair_screens(Xa, Xb, sqa, sqb, ia, ib), want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("T", [200, 2000])
def test_screen_holds_at_most_seven_bytes_per_sample(T):
    # the (triples, T) decisions, one float32 screen per sample, one first
    # label's second screens, and one label pair's temporaries
    inputs = wide_labels_screen(24, 120, T)
    tracemalloc.start()
    try:
        _screen(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2024 * T


@pytest.mark.parametrize("T", [1, 2, 7, 200, LEMIRE_CHUNK + 1])
def test_round_one_matches_generator_integers(monkeypatch, T):
    # every ordered triple of the sizes: 2 ** 31 + 1 redraws about half its
    # words, 2 ** 32 - 1 almost none, and a size of 1 draws nothing
    sizes = np.array(list(itertools.product([1, 2, 2 ** 31 + 1, 2 ** 32 - 1], repeat=3)), dtype=np.uint64)
    seeds = [np.random.SeedSequence(2024, spawn_key=(t,)) for t in range(len(sizes))]
    fallbacks = []
    draw = ceda.label_tree._draw
    monkeypatch.setattr(ceda.label_tree, "_draw", lambda *args: fallbacks.append(args) or draw(*args))
    np.random.bit_generator.ISeedSequence.register(_Child)
    got = _round_one(spawn_states(np.random.SeedSequence(2024), len(sizes)), sizes, T)
    for s, triple, drawn in zip(seeds, sizes.tolist(), got):
        rng = np.random.Generator(np.random.PCG64(s))
        assert np.array_equal(drawn, [rng.integers(0, size, T) for size in triple])
    # a one-row label always falls back; only it and redraws do
    fell = [triple for _, triple, _ in fallbacks]
    assert all(1 in triple or 2 ** 31 + 1 in triple for triple in fell)
    assert all(triple in fell for triple in sizes.tolist() if 1 in triple)


# --- the seed hash against numpy's SeedSequence -------------------------


def numpy_children(root, n):
    return [np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (t,)) for t in range(n)]


SEED_HASH_FAILED = "spawn_states no longer matches numpy's SeedSequence hash (mix_entropy, generate_state)"


# run entropies of 1, 2, 4, 5 and 9 uint32 words, and a root with a spawn key
@pytest.mark.parametrize("root", [
    np.random.SeedSequence(0),
    np.random.SeedSequence(2 ** 32 - 1),
    np.random.SeedSequence(2 ** 32),
    np.random.SeedSequence(2 ** 128 - 3),
    np.random.SeedSequence(2 ** 128 + 5),
    np.random.SeedSequence([3, 2 ** 32 - 1, 0, 7, 11, 2 ** 31, 1, 5, 9]),
    np.random.SeedSequence(17, spawn_key=(4, 2 ** 40)),
], ids=["0", "2^32-1", "2^32", "2^128-3", "2^128+5", "list", "spawned"])
def test_spawn_states_hash_as_numpy_seed_sequence(root):
    for n in (0, 1, 301):
        got = spawn_states(root, n)
        want = np.array([c.generate_state(4, np.uint64) for c in numpy_children(root, n)], dtype=np.uint64)
        assert got.shape == (n, 4) and got.dtype == np.uint64
        assert np.array_equal(got, want.reshape(n, 4)), SEED_HASH_FAILED
    np.random.bit_generator.ISeedSequence.register(_Child)
    for t in (0, 1, 300):
        child, state = numpy_children(root, t + 1)[t], spawn_states(root, t + 1)[t]
        raw = np.random.PCG64(_Child(state)).random_raw(7)
        assert np.array_equal(raw, np.random.PCG64(child).random_raw(7)), SEED_HASH_FAILED
        drawn = np.random.default_rng(_Child(state)).integers(0, [3, 2 ** 31 + 1, 2 ** 40], (5, 3))
        assert np.array_equal(drawn, np.random.default_rng(child).integers(0, [3, 2 ** 31 + 1, 2 ** 40], (5, 3))), \
            SEED_HASH_FAILED


# --- distances -----------------------------------------------------------


def test_distance_from_hand_tally():
    # (a,b) smallest 6 times, (a,c) 3 times, (b,c) once; T = 10
    dm = DominanceMatrix(labels=["a", "b", "c"], triples=np.array([[0, 1, 2]]),
                         tally=np.array([[6, 3, 1]]), samples_per_triplet=10)
    d = dominance_to_distance(dm)
    assert d[0, 1] == pytest.approx(0.4)   # 3+1 samples over exposure 10
    assert d[0, 2] == pytest.approx(0.7)
    assert d[1, 2] == pytest.approx(0.9)
    assert np.array_equal(d, d.T)


def dense_distance(dm):
    """The distance as the dense dominance matrix gave it: counts[p, q]
    holds, for each triple, the samples in which pair p was the minimum,
    against each other pair q; then column sums over the exposure."""
    L = len(dm.labels)
    pair_index = np.zeros((L, L), dtype=np.intp)
    pair_index[np.triu_indices(L, 1)] = np.arange(L * (L - 1) // 2)
    pair_ids = pair_index[dm.triples[:, [0, 0, 1]], dm.triples[:, [1, 2, 2]]]
    counts = np.zeros((L * (L - 1) // 2,) * 2, dtype=np.int64)
    dominated_slot, other_slot = [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]
    counts[pair_ids[:, dominated_slot], pair_ids[:, other_slot]] = dm.tally[:, dominated_slot]
    out = np.zeros((L, L))
    out[np.triu_indices(L, 1)] = counts.sum(axis=0) / dm.exposure
    return out + out.T


@settings(max_examples=100, deadline=None)
@given(L=st.integers(3, 9), T=st.integers(1, 10 ** 6), data=st.data())
def test_distance_from_the_tally_keeps_the_dense_matrix_bits(L, T, data):
    # any tally, rows need not sum to T
    triples = np.array(list(itertools.combinations(range(L), 3)))
    tally = np.array(data.draw(st.lists(st.lists(st.integers(0, T), min_size=3, max_size=3),
                                        min_size=len(triples), max_size=len(triples))), dtype=np.int64)
    dm = DominanceMatrix(labels=["l%d" % i for i in range(L)], triples=triples, tally=tally,
                         samples_per_triplet=T)
    assert dominance_to_distance(dm).tobytes() == dense_distance(dm).tobytes()


def test_dominance_csv_header():
    ds = clouds([[0, 0], [4, 0], [0, 4], [4, 4]], sd=0.5, n=25, seed=3)
    dm = sample_triplet_orderings(ds, ["f0", "f1"], samples_per_triplet=10, seed=0)
    lines = dm.to_csv_text().strip().split("\n")
    assert lines[0] == "x,y,z,xy,xz,yz"
    assert [line.split(",")[:3] for line in lines[1:]] == [list(t) for t in itertools.combinations("abcd", 3)]
    assert [[int(v) for v in line.split(",")[3:]] for line in lines[1:]] == dm.tally.tolist()


@settings(max_examples=30, deadline=None)
@given(labels=st.lists(st.text(), min_size=3, max_size=6, unique=True))
@example(labels=["a,b", 'q"x', "", "line\nbreak", " x"])
def test_dominance_csv_is_csv_text_of_its_rows(labels):
    triples = np.array(list(itertools.combinations(range(len(labels)), 3)))
    tally = np.arange(3 * len(triples)).reshape(-1, 3) * 37 % 201
    dm = DominanceMatrix(labels=labels, triples=triples, tally=tally, samples_per_triplet=200)
    rows = [["x", "y", "z", "xy", "xz", "yz"]]
    rows += [[labels[i] for i in t] + c for t, c in zip(triples.tolist(), tally.tolist())]
    assert dm.to_csv_text() == csv_text(rows)


# --- trees ---------------------------------------------------------------


def test_tree_joins_the_close_pair_first():
    ds = clouds(THREE, n=60, seed=11)
    tree = tree_from_training(ds, ["f0", "f1"], samples_per_triplet=200, seed=11)
    # first internal node of a 3-leaf tree is node 3
    assert tree.node_labels(3) == ("a", "b")


def test_tree_special_cases():
    one = clouds([[0, 0]])
    t1 = tree_from_training(one, ["f0", "f1"])
    assert t1.root == 0
    assert t1.node_labels(0) == ("a",)
    two = clouds([[0, 0], [5, 5]])
    t2 = tree_from_training(two, ["f0", "f1"])
    assert t2.node_labels(t2.root) == ("a", "b")
    assert t2.children(t2.root) == (0, 1)


def test_build_label_tree_shape_check():
    with pytest.raises(DataError, match="shape"):
        build_label_tree(np.zeros((2, 2)), ["a", "b", "c"])


def test_tree_newick_and_json():
    d = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
    tree = build_label_tree(d, ["a", "b", "c"])
    assert "(a,b)" in tree.to_newick()
    js = tree.to_json_dict()
    assert js["labels"] == ["a", "b", "c"]
    assert js["merges"][0]["labels"] == ["a", "b"]
    assert all(set(m) == {"node", "left", "right", "height", "labels"} for m in js["merges"])


def test_tree_children_and_leaf_queries():
    d = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
    tree = build_label_tree(d, ["a", "b", "c"])
    assert tree.root == 4
    left, right = tree.children(4)
    assert {tree.node_labels(left), tree.node_labels(right)} == {("a", "b"), ("c",)}
    assert tree.is_leaf(2)
    assert not tree.is_leaf(3)
