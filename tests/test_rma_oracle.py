"""Batched rma prediction against a one-query-at-a-time reference.

The reference below locates one query, rebuilds the z-scored major matrix
of the training table, orders the rectangle's rows with a full ``lexsort``
by (distance, row), sieves the first k* by minor equality and averages
their responses, as the package did before prediction was batched.  The
batched ``rma_predict_rows`` must return the same value bits, cells and
flags, including distance ties (rows with duplicated covariates),
out-of-range and snapped queries, empty rectangles, emptied sieves and k*
above the rectangle size.  Every training row has responses of its own, so
equal value bits mean the same focal rows.

The cell groupings are held to the code they replaced: ``rows_by_cell`` to
a per-row dict, the lattice's rectangles and response regions to the
per-row loop that built them, and the joint response codes to a row-wise
``np.unique(axis=0)``.
"""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ceda.association import category_codes
from ceda.dataset import Column, DataTable, feature_matrix
from ceda.discretize import build_histogram, categorize_many
from ceda.errors import DataError
from ceda.rma import (
    FLAGS,
    ResponseSpec,
    build_locality_lattice,
    joint_response_codes,
    rma_predict_rows,
    rows_by_cell,
)

predictive_map = importlib.import_module("ceda.predictive_map")

# --- one-query reference ---------------------------------------------------


def ref_locate(lattice, xvals):
    codes, oor = [], False
    for value, major in zip(xvals, lattice.majors):
        if major in lattice.binnings:
            ids, flags = categorize_many(lattice.binnings[major], np.asarray([value], dtype=float))
            codes.append(int(ids[0]))
            oor = oor or bool(flags[0])
        else:
            vals = lattice.discrete_values[major]
            j = int(np.searchsorted(vals, value))
            if j == len(vals) or (j > 0 and abs(vals[j - 1] - value) <= abs(vals[j] - value)):
                j = j - 1 if j > 0 else 0
            codes.append(j)
            oor = oor or (vals[j] != value)
    return tuple(codes), oor


def ref_predict(xvals, z, lattice, table, k_star, minor_binnings):
    flags = set()
    cell, oor = ref_locate(lattice, xvals)
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
    focal = members[np.lexsort((members, d))[:k]]
    if z:
        mask = np.ones(len(focal), dtype=bool)
        for minor, value in z.items():
            col = table.column(minor)
            if col.kind == "categorical":
                mask &= (col.values[focal].astype(str) == str(value))
            elif col.kind == "discrete":
                mask &= (np.asarray(col.values, dtype=float)[focal] == float(value))
            else:
                mb = minor_binnings[minor]
                want, _ = categorize_many(mb, np.asarray([float(value)]))
                got, _ = categorize_many(mb, np.asarray(col.values, dtype=float)[focal])
                mask &= (got == want[0])
        if mask.any():
            focal = focal[mask]
        else:
            flags.add("sieve_fallback")
    resp = feature_matrix(table, lattice.responses)[focal]
    return resp.mean(axis=0).tobytes(), list(cell), [flag in flags for flag in FLAGS]


def fields(preds):
    """(value bytes, cell, flags) of each query row of an RmaPredictions."""
    return [(v.tobytes(), c, f) for v, c, f in zip(preds.values, preds.cells.tolist(), preds.flags.tolist())]


# --- random problems -------------------------------------------------------


@st.composite
def lattice_inputs(draw):
    """A small table with 1-3 numeric majors, 1-3 responses and one minor of
    each kind, rows with duplicated covariates, and sometimes a bin subset of
    the first major.  Returns (rng, columns, table, spec, majors, binnings,
    bin_subset)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 40))
    major_kinds = draw(st.lists(st.sampled_from(["continuous", "discrete"]), min_size=1, max_size=3))
    majors = ["x%d" % j for j in range(len(major_kinds))]
    columns = {}
    for name, kind in zip(majors, major_kinds):
        if kind == "continuous":
            columns[name] = (kind, rng.normal(0.0, 2.0, n))
        else:
            columns[name] = (kind, rng.integers(0, 4, n).astype(float))
    responses = ["y%d" % j for j in range(draw(st.integers(1, 3)))]
    for name in responses:
        columns[name] = ("continuous", rng.normal(0.0, 10.0, n))
    columns["g"] = ("categorical", rng.choice(["p", "q", "r"], n).astype(object))
    columns["m"] = ("discrete", rng.integers(0, 3, n).astype(float))
    columns["c"] = ("continuous", rng.uniform(-1.0, 1.0, n))
    dup = rng.integers(0, n, draw(st.integers(0, 10)))
    # a duplicated row repeats every covariate but gets responses of its own,
    # so the mean of a query's focal rows tells which of two tied rows it took
    columns = {name: (kind, np.concatenate([v, rng.normal(0.0, 10.0, len(dup)) if name in responses else v[dup]]))
               for name, (kind, v) in columns.items()}
    # constant columns cannot be binned
    for name, (kind, v) in columns.items():
        if kind == "continuous":
            v[:2] = [-3.0, 3.0]
        elif kind == "discrete":
            v[:2] = [0.0, 1.0]
    table = DataTable([Column(name, kind, v) for name, (kind, v) in columns.items()])
    spec = ResponseSpec(tuple(responses), tuple(majors) + ("g", "m", "c"))
    binnings = {name: build_histogram(v, target_bins=draw(st.integers(1, 5)), feature=name)
                for name, (kind, v) in columns.items() if kind == "continuous"}
    bin_subset = None
    if draw(st.booleans()):
        first = majors[0]
        n_cats = binnings[first].n_bins if first in binnings else len(np.unique(columns[first][1]))
        keep = draw(st.lists(st.integers(0, n_cats - 1), min_size=1, max_size=n_cats, unique=True))
        bin_subset = {first: keep}
    return rng, columns, table, spec, majors, binnings, bin_subset


@st.composite
def problems(draw):
    """A lattice of ``lattice_inputs`` (without the bin subset when it keeps
    no row) and queries that repeat training rows, fall between them, leave
    the range, or carry minor values no training row has."""
    rng, columns, table, spec, majors, binnings, bin_subset = draw(lattice_inputs())
    try:
        lattice = build_locality_lattice(table, spec, majors, binnings, bin_subset=bin_subset)
    except DataError:
        lattice = build_locality_lattice(table, spec, majors, binnings)
    X = feature_matrix(table, majors)
    Xq = np.vstack([
        X[rng.integers(0, len(X), 5)],
        X[rng.integers(0, len(X), 5)] + rng.normal(0.0, 0.5, (5, len(majors))),
        X[rng.integers(0, len(X), 2)] + 0.5,  # halfway between discrete values
        X.min(axis=0) - rng.uniform(0.1, 3.0, (2, len(majors))),
        X.max(axis=0) + rng.uniform(0.1, 3.0, (2, len(majors))),
    ])
    minor_names = draw(st.sets(st.sampled_from(["g", "m", "c"])))
    minors = {}
    for name in sorted(minor_names):
        vals = columns[name][1]
        if name == "g":
            minors[name] = list(rng.choice(["p", "q", "r", "zzz"], len(Xq)))
        elif name == "m":
            minors[name] = list(rng.choice([0.0, 1.0, 2.0, 7.0], len(Xq)))
        else:
            minors[name] = list(rng.uniform(vals.min() - 0.5, vals.max() + 0.5, len(Xq)))
    return table, lattice, Xq, minors, binnings


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), k_star=st.integers(1, 60),
       block_bytes=st.sampled_from([1, 16, 200, predictive_map.BLOCK_BYTES]))
def test_batched_rma_matches_one_query_reference(problem, k_star, block_bytes):
    table, lattice, Xq, minors, binnings = problem
    want, error = [], None
    for i in range(len(Xq)):
        z = {name: vals[i] for name, vals in minors.items()}
        try:
            want.append(ref_predict(Xq[i], z, lattice, table, k_star, binnings))
        except DataError as exc:
            error = str(exc)
            break
    with mock.patch.object(predictive_map, "BLOCK_BYTES", block_bytes):
        if error is not None:
            # the first query row that hits an uncovered region names it
            with pytest.raises(DataError) as info:
                rma_predict_rows(Xq, minors, lattice, table, k_star, binnings)
            assert str(info.value) == error
            return
        got = rma_predict_rows(Xq, minors, lattice, table, k_star, binnings)
        one = [rma_predict_rows(Xq[i:i + 1], {name: vals[i:i + 1] for name, vals in minors.items()},
                                lattice, table, k_star, binnings) for i in range(0, len(Xq), 5)]
    assert fields(got) == want
    assert [row for p in one for row in fields(p)] == fields(got)[::5]


# --- cell groupings against the per-row code they replaced -----------------


@settings(max_examples=200, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_rows_by_cell_matches_per_row_dict(dims, data):
    cells = data.draw(st.lists(st.tuples(*[st.integers(0, d - 1) for d in dims]), max_size=30))
    codes = np.array(cells, dtype=int).reshape(len(cells), len(dims))
    want = {}
    for row, cell in enumerate(cells):
        want.setdefault(cell, []).append(row)
    got = rows_by_cell(codes, {"f%d" % j: d for j, d in enumerate(dims)})
    assert list(got) == sorted(want)
    assert {cell: rows.tolist() for cell, rows in got.items()} == want
    assert all(type(c) is int for cell in got for c in cell)


def ref_lattice_cells(table, spec, majors, binnings, bin_subset):
    """Rectangles and response regions as a per-row loop built them."""
    codes_per_major = [category_codes(table, m, binnings)[0] for m in majors]
    keep = np.ones(table.n_rows, dtype=bool)
    for m, codes in zip(majors, codes_per_major):
        if m in (bin_subset or {}):
            keep &= np.isin(codes, list(bin_subset[m]))
    combo = np.column_stack(codes_per_major)
    cells = {}
    for i in np.flatnonzero(keep):
        cells.setdefault(tuple(int(c) for c in combo[i]), []).append(int(i))
    regions = {}
    for cell, rows in cells.items():
        cells[cell] = np.asarray(sorted(rows), dtype=int)
        regions[cell] = {r: (float(np.asarray(table.values(r), dtype=float)[cells[cell]].min()),
                             float(np.asarray(table.values(r), dtype=float)[cells[cell]].max()))
                         for r in spec.responses}
    return cells, regions


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=lattice_inputs())
def test_lattice_matches_per_row_reference(inputs):
    _, _, table, spec, majors, binnings, bin_subset = inputs
    cells, regions = ref_lattice_cells(table, spec, majors, binnings, bin_subset)
    if not cells:
        with pytest.raises(DataError, match="no occupied rectangles"):
            build_locality_lattice(table, spec, majors, binnings, bin_subset=bin_subset)
        return
    lattice = build_locality_lattice(table, spec, majors, binnings, bin_subset=bin_subset)
    assert list(lattice.cells) == sorted(cells)
    assert {cell: rows.tolist() for cell, rows in lattice.cells.items()} == {
        cell: rows.tolist() for cell, rows in cells.items()}
    assert lattice.cell_regions == regions


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=lattice_inputs(), data=st.data())
def test_joint_response_codes_match_rowwise_unique(inputs, data):
    _, _, table, spec, _, binnings, _ = inputs
    responses = data.draw(st.lists(st.sampled_from(list(spec.responses) + ["g", "m", "c"]),
                                   min_size=1, max_size=4, unique=True))
    per_resp = [category_codes(table, r, binnings) for r in responses]
    cells, inverse = np.unique(np.column_stack([codes for codes, _ in per_resp]), axis=0,
                               return_inverse=True)
    names = ["/".join("%s=%s" % (r, cats[c]) for (_, cats), r, c in zip(per_resp, responses, cell))
             for cell in cells]
    got_codes, got_names = joint_response_codes(table, ResponseSpec(tuple(responses), ("x0",)), binnings)
    assert got_codes.tolist() == inverse.ravel().tolist()
    assert got_names == names
