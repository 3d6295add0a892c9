"""Output checks for each command, and the content compared with references.

``check(command, out_dir, expect)`` returns (problems, content).  Problems
are invariants the output breaks.  Content is a canonical summary built
from label sets and counts, never from display names or CSV quoting, so it
can be compared with values recorded from an earlier version of the
program.
"""

import csv
import hashlib
import json
import math
from pathlib import Path


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _counts(entry, labels):
    return [int(entry["counts"].get(lab, 0)) for lab in labels]


def _check_pmap(out, expect):
    problems = []
    (path,) = sorted(Path(out).glob("pmap_*.json"))
    doc = json.loads(path.read_text())
    labels = sorted(expect["test_counts"])
    totals = {lab: 0 for lab in labels}
    content = []
    for cat in doc["categories"]:
        if not set(cat["labels"]) <= set(labels):
            problems.append("pmap category outside the label universe: %s" % cat["labels"])
        for lab, c in cat["counts"].items():
            totals[lab] = totals.get(lab, 0) + int(c)
        content.append([sorted(cat["labels"]), _counts(cat, labels)])
    if totals != expect["test_counts"]:
        problems.append("pmap column totals %s differ from test counts %s" % (totals, expect["test_counts"]))
    return problems, sorted(content)


def _check_chain(out, expect):
    problems = []
    out = Path(out)
    if json.loads((out / "chain_summary.json").read_text())["conserved"] is not True:
        problems.append("chain_summary.conserved is not true")
    labels = sorted(expect["test_counts"])
    depths, parents = [], None
    for depth in range(1, len(list(out.glob("chain_depth*.json"))) + 1):
        doc = json.loads((out / ("chain_depth%d.json" % depth)).read_text())
        cats = [(tuple(tuple(s) for s in c["path"]), sum(_counts(c, labels)), c["certain"], _counts(c, labels))
                for c in doc["categories"]]
        if parents is None:
            if sum(c[1] for c in cats) != expect["n_test"]:
                problems.append("chain depth 1 holds %d rows, expected %d" % (sum(c[1] for c in cats), expect["n_test"]))
        else:
            children = {}
            for path, total, _, _ in cats:
                children[path[:-1]] = children.get(path[:-1], 0) + total
            if children != parents:
                problems.append("chain depth %d does not conserve its parents' counts" % depth)
        parents = {path: total for path, total, certain, _ in cats if not certain}
        depths.append(sorted([[list(map(list, path)), counts] for path, _, _, counts in cats]))
    return problems, depths


def _check_dissect(out, expect):
    totals = json.loads((Path(out) / "dissection.json").read_text())["totals"]
    problems = []
    if sum(totals.values()) != expect["n_test"]:
        problems.append("dissection totals %d != %d test rows" % (sum(totals.values()), expect["n_test"]))
    return problems, {k: int(v) for k, v in sorted(totals.items())}


def _check_mce(out, expect):
    rows = _rows(Path(out) / "mce_matrix.csv")
    names = rows[0][1:]
    values = {(r[0], c): float(v) for r in rows[1:] for c, v in zip(names, r[1:])}
    problems = []
    if sorted(names) != sorted(r[0] for r in rows[1:]):
        problems.append("mce matrix rows and columns name different features")
    for (a, b), v in values.items():
        if not 0.0 <= v <= 1.0:
            problems.append("mce(%s, %s) = %r outside [0, 1]" % (a, b, v))
        if a == b and v != 0.0:
            problems.append("mce diagonal (%s) = %r, not 0" % (a, v))
        mirror = values.get((b, a))
        if mirror is None or abs(v - mirror) > 1e-12:
            problems.append("mce matrix not symmetric at (%s, %s)" % (a, b))
    if set(names) != set(expect["features"]):
        problems.append("mce matrix covers %d of %d features" % (len(names), len(expect["features"])))
    ordered = sorted(names)
    content = [values[(a, b)] for i, a in enumerate(ordered) for b in ordered[i + 1:]]
    return problems, {"features": ordered, "upper": content}


def _check_let(out, expect):
    doc = json.loads((Path(out) / "tree.json").read_text())
    labels = sorted(expect["test_counts"])
    problems = []
    merges = doc["merges"]
    if sorted(doc["labels"]) != labels:
        problems.append("tree labels %s differ from the data's %s" % (doc["labels"], labels))
    if len(merges) != len(labels) - 1:
        problems.append("tree has %d merges for %d labels" % (len(merges), len(labels)))
    elif sorted(merges[-1]["labels"]) != labels:
        problems.append("tree root does not cover every label")
    return problems, sorted(sorted(m["labels"]) for m in merges)


def _check_rma(out, expect):
    out = Path(out)
    problems = []
    plot_rows = len(_rows(out / "rma_plotdata.csv")) - 1
    if plot_rows != expect["n_test"]:
        problems.append("rma_plotdata has %d rows, expected %d" % (plot_rows, expect["n_test"]))
    rows = _rows(out / "rma_errors.csv")
    mse_cols = [j for j, h in enumerate(rows[0]) if h.startswith("mse_")]
    for r in rows[1:]:
        for j in mse_cols:
            if not math.isfinite(float(r[j])):
                problems.append("rma %s %s is not finite" % (r[0], rows[0][j]))
    pooled = [r for r in rows[1:] if r[0] == "ALL"]
    if len(pooled) != 1:
        return problems + ["rma_errors.csv has no single pooled row"], None
    return problems, {rows[0][j][4:]: float(pooled[0][j]) for j in mse_cols}


CHECKS = {
    "pmap": _check_pmap,
    "chain": _check_chain,
    "dissect": _check_dissect,
    "mce": _check_mce,
    "let": _check_let,
    "rma": _check_rma,
}


def check(command, out_dir, expect):
    """Invariant problems and canonical content of one command's output."""
    try:
        return CHECKS[command](out_dir, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["%s output unreadable: %s: %s" % (command, type(exc).__name__, exc)], None


def summary(command, content):
    """What a reference keeps: mce values and pooled rma mse as numbers, to
    be compared within a tolerance; every other content as a digest of its
    canonical JSON, to be compared exactly."""
    if command in ("mce", "rma"):
        return content
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:16]


def compare(command, content, reference):
    """Differences between a summary and a recorded reference (empty when equal)."""
    if command == "mce":
        if content["features"] != reference["features"]:
            return ["mce features differ from the reference"]
        bad = [i for i, (a, b) in enumerate(zip(content["upper"], reference["upper"])) if abs(a - b) > 1e-9]
        return ["mce differs from the reference at %d pairs" % len(bad)] if bad else []
    if command == "rma":
        bad = [r for r in reference if abs(content.get(r, math.inf) - reference[r]) > 1e-9 * abs(reference[r])]
        return ["pooled rma mse differs from the reference for %s" % bad] if bad else []
    return [] if content == reference else ["%s content differs from the reference" % command]
