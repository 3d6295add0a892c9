"""Spans around calls into the program's layers, recorded from outside.

Each wrapped callable is replaced at the place its caller looks it up (a
module global imported by name, a module attribute, or a class method), so
``src/`` is not modified.  Spans are kept in memory as
``[name, start, end, parent, note]`` and written out once the run ends.
A span's layer is the part of its name before the first dot.
"""

import importlib
import json
import math
import time
from collections import defaultdict

# (module, attribute, span name): one entry per place a caller looks the name
# up.  ``ceda.cli`` imports most public functions by name, ``ceda.chain``
# imports TreeClassifier and tree_from_training, ``ceda.association`` calls
# ``hclust.agglomerate`` through the module, and so on.
FUNCTION_SITES = [
    ("ceda.cli", "load_csv", "dataset.load_csv"),
    ("ceda.cli", "split_train_test", "dataset.split"),
    ("ceda.cli", "write_csv", "dataset.write_csv"),
    ("ceda.cli", "build_histogram", "discretize.build_histogram"),
    ("ceda.association", "categorize_many", "discretize.categorize_many"),
    ("ceda.rma", "categorize_many", "discretize.categorize_many"),
    ("ceda.discretize", "categorize_many", "discretize.categorize_many"),
    ("ceda.cli", "mce_matrix", "association.mce_matrix"),
    ("ceda.cli", "rank_features_by_label_association", "association.rank"),
    ("ceda.association", "category_codes", "association.category_codes"),
    ("ceda.rma", "category_codes", "association.category_codes"),
    ("ceda.association", "contingency_table", "association.contingency_table"),
    ("ceda.hclust", "agglomerate", "hclust.agglomerate"),
    ("ceda.label_tree", "agglomerate", "hclust.agglomerate"),
    ("ceda.cli", "sample_triplet_orderings", "label_tree.sample"),
    ("ceda.label_tree", "sample_triplet_orderings", "label_tree.sample"),
    ("ceda.cli", "tree_from_training", "label_tree.tree_from_training"),
    ("ceda.chain", "tree_from_training", "label_tree.tree_from_training"),
    ("ceda.cli", "predictive_map", "predictive_map.predictive_map"),
    ("ceda.predictive_map", "tabulate_predictions", "predictive_map.tabulate"),
    ("ceda.cli", "chain_categories", "chain.chain_categories"),
    ("ceda.cli", "knn_baseline_predict", "chain.knn_baseline"),
    ("ceda.cli", "dissect_external", "chain.dissect_external"),
    ("ceda.cli", "score_major_candidate", "rma.score_major"),
    ("ceda.cli", "build_locality_lattice", "rma.lattice"),
    ("ceda.cli", "minor_feature_entropy", "rma.minor_entropy"),
    ("ceda.cli", "rma_predict", "rma.predict"),
    ("ceda.cli", "error_metrics", "rma.error_metrics"),
    ("ceda.cli", "ols_fit", "rma.ols"),
]

# (class attribute, span name) on ceda.predictive_map.TreeClassifier
METHOD_SITES = [
    ("classify", "predictive_map.classify"),
    ("competition", "predictive_map.competition"),
    ("_outlier_threshold", "predictive_map.outlier_threshold"),
]


def _sample_note(args, kwargs, result):
    # (features, seed, T) identifies the sample; the triple count is its work
    train, features = args[0], args[1]
    seed = kwargs.get("seed", args[3] if len(args) > 3 else 0)
    T = kwargs.get("samples_per_triplet", args[2] if len(args) > 2 else 200)
    L = len(train.labels)
    return [list(features), int(seed), int(T), L * (L - 1) * (L - 2) // 6]


NOTES = {
    "label_tree.sample": _sample_note,
    "predictive_map.classify": lambda args, kwargs, result: id(args[0]),
    "rma.predict": lambda args, kwargs, result: bool(result.flagged),
}


class Tracer:
    """Records nested spans while installed; restores every wrapped name on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; the span is recorded even if fn raises."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        note = NOTES.get(name)
        if note is not None:
            rec[4] = note(args, kwargs, result)
        return result

    def _wrap(self, orig, name):
        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, **kwargs)
        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        # imported here: run.py puts src/ on sys.path only after checking it exists
        from ceda.predictive_map import TreeClassifier

        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, name)
        for attr, name in METHOD_SITES:
            self._patch(TreeClassifier, attr, name)

    def _patch(self, owner, attr, name):
        orig = owner.__dict__[attr]
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": self.spans}, fh)


def self_times(spans):
    """Two lists over spans: the index of each span's root (its command), and
    its self time (duration minus the durations of its children)."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    return root, [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_self_times(spans):
    """{command span name: {layer: self seconds}}, summed over repeats of a command."""
    root, selfs = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for i, rec in enumerate(spans):
        out[spans[root[i]][0]][rec[0].split(".", 1)[0]] += selfs[i]
    return {cmd: dict(layers) for cmd, layers in out.items()}


def scaling_exponent(sizes, seconds):
    """Least-squares slope of log(time) on log(size)."""
    x = [math.log(s) for s in sizes]
    y = [math.log(t) for t in seconds]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def layer_metrics(spans, bytes_written):
    """The per-layer metrics of BENCHMARK.json (scaling and overhead excluded).

    A layer the workload never calls reads 0."""
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)
    root, selfs = self_times(spans)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    def count(name):
        return len(by_name[name])

    def mean_us(name):
        return 1e6 * total(name) / count(name) if count(name) else 0.0

    # distinct (features, seed, T) sample keys within each command; a CLI
    # invocation is one process, so only repeats inside it could be shared
    samples = by_name["label_tree.sample"]
    keys = {(root[i], json.dumps(spans[i][4][:3])) for i in samples}
    # rows classified per link, from classify calls grouped by classifier instance
    depth_rows = defaultdict(int)
    for c in by_name["chain.chain_categories"]:
        seen = []
        for i in by_name["predictive_map.classify"]:
            if spans[i][3] == c:
                if spans[i][4] not in seen:
                    seen.append(spans[i][4])
                depth_rows[seen.index(spans[i][4])] += 1
    queries = by_name["rma.predict"]
    return {
        "predictive_map.classify_s": total("predictive_map.classify"),
        "predictive_map.points": count("predictive_map.classify"),
        "predictive_map.competitions": count("predictive_map.competition"),
        "predictive_map.competition_us": mean_us("predictive_map.competition"),
        "predictive_map.outlier_threshold_s": total("predictive_map.outlier_threshold"),
        "predictive_map.tabulate_s": total("predictive_map.tabulate"),
        "label_tree.sample_s": total("label_tree.sample"),
        "label_tree.sample_calls": len(samples),
        "label_tree.distinct_sample_ratio": len(keys) / len(samples) if samples else 0.0,
        "label_tree.triples": sum(spans[i][4][3] for i in samples),
        "association.mce_matrix_s": total("association.mce_matrix"),
        "association.category_codes_calls": count("association.category_codes"),
        "association.contingency_tables": count("association.contingency_table"),
        "association.rank_s": total("association.rank"),
        "hclust.agglomerate_s": total("hclust.agglomerate"),
        "hclust.agglomerate_calls": count("hclust.agglomerate"),
        "discretize.build_histogram_s": total("discretize.build_histogram"),
        "discretize.categorize_many_calls": count("discretize.categorize_many"),
        "chain.chain_categories_self_s": sum(selfs[i] for i in by_name["chain.chain_categories"]),
        "chain.refined_ratio": depth_rows[1] / depth_rows[0] if depth_rows[0] else 0.0,
        "chain.knn_baseline_s": total("chain.knn_baseline"),
        "chain.dissect_external_s": total("chain.dissect_external"),
        "rma.score_major_s": total("rma.score_major"),
        "rma.lattice_s": total("rma.lattice"),
        "rma.predict_s": total("rma.predict"),
        "rma.queries": len(queries),
        "rma.predict_us": mean_us("rma.predict"),
        "rma.flagged_ratio": sum(1 for i in queries if spans[i][4]) / len(queries) if queries else 0.0,
        "rma.error_metrics_s": total("rma.error_metrics"),
        "rma.ols_s": total("rma.ols"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.load_csv_calls": count("dataset.load_csv"),
        "dataset.split_s": total("dataset.split"),
        "dataset.write_csv_s": total("dataset.write_csv"),
        "cli.self_s": sum(selfs[i] for i, rec in enumerate(spans) if rec[0].startswith("cli.")),
        "cli.bytes_written": bytes_written,
    }
