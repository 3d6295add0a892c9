"""Command line interface.

Usage examples:

    ceda synth --kind gauss-clouds --params '{"centers": [[0,0],[3,0]]}' \
        --seed 7 --out runs/clouds
    ceda mce --config cfg.json --out runs/mce
    ceda pmap --config cfg.json --seed 11
    ceda chain --config cfg.json
    ceda dissect --config cfg.json
    ceda rma --config cfg.json
    ceda let --config cfg.json

The config file is JSON.  SETTINGS below lists every key with its kind,
default and range, as does the README's table; unknown keys draw a warning.
Command line --seed/--out override the config; --threads is accepted and
ignored.

Exit codes: 0 success, 1 configuration error (an out dir that cannot be
written included), 2 data error, 3 computation error (running out of memory
included).

A command computes every report before anything touches the disk; only
once it has succeeded does Run.finish make the out dir and write the
reports, then a manifest.json recording the command, package version,
seed, a sha256 of the effective config and the artifact list.  Reports are
byte-identical across reruns with the same config and seed, except for the
manifest timestamp.  Stage seeds derive from the global seed through
SeedSequence([seed, stage_offset]); the offsets are listed in
STAGE_OFFSETS below.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
import time
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from .association import mce_matrix, rank_features_by_label_association
from .chain import (
    ChainLink,
    FeatureChain,
    chain_categories,
    derived_seed,
    dissect_external,
    knn_baseline_predict,
    load_external_predictions,
)
from .dataset import SplitSpec, csv_text, feature_matrix, load_csv, split_train_test, synth_generate, write_csv
from .discretize import (
    build_histogram,  # noqa: F401  (bench/spans.py wraps ceda.cli.build_histogram by name)
    default_binnings,
)
from .errors import CedaError, ComputationError, ConfigError, DataError, check_kind
from .label_tree import (
    build_label_tree,
    dominance_to_distance,
    sample_triplet_orderings,
    tree_from_training,
)
from .predictive_map import DECISIONS, CompetitionConfig, predictive_map
from .rma import (
    FLAGS,
    MAJOR_SCORE_THRESHOLD,
    ResponseSpec,
    build_locality_lattice,
    error_metrics,
    joint_response_codes,
    minor_feature_entropy,
    ols_fit,
    ols_report_text,
    rma_predict_rows,
    score_major_candidate,
)

# the name bench/spans.py wraps; cmd_rma calls rma_predict_rows, so the span never fires
rma_predict = rma_predict_rows

log = logging.getLogger("ceda")

STAGE_OFFSETS = {"synth": 0, "split": 1, "let": 2, "pmap": 3, "chain": 4, "dissect": 5, "rma": 6}

# Every config key: dotted path -> (JSON kind, default, range).  "*" stands
# for a name the config chooses.  A None default lets the key be absent or
# null, the command then working the value out from its data.  A range
# (low, high) bounds an integer, a None high leaving it open; the competition
# keys and split.train_fraction have theirs in CompetitionConfig and
# SplitSpec, which library callers build directly.
REQUIRED = object()

SETTINGS = {
    "dataset": (str, REQUIRED, None),
    "label_column": (str, REQUIRED, None),
    "schema": (dict, None, None),
    "seed": (int, 0, (0, None)),
    "out_dir": (str, "ceda_out", None),
    "features": (list, None, None),
    "feature_sets": (dict, None, None),
    "feature_sets.*": (list, None, None),
    "chain": (list, None, None),
    "chain.*.set": (str, REQUIRED, None),
    "chain.*.competition": (dict, None, None),
    "split.train_fraction": (float, 0.8, None),
    "split.stratified": (bool, True, None),
    "binning.target_bins": (int, None, (1, None)),
    "binning.per_feature": (dict, {}, None),
    "binning.per_feature.*": (int, None, (1, None)),
    **{"competition." + f.name: (f.type, f.default, None) for f in dataclasses.fields(CompetitionConfig)},
    "let.feature_set": (str, None, None),
    # the sampler holds screen state for every sample of every triple (about
    # 8 bytes each, 11 past 255 rows a label): 10^8 samples on three labels
    # ran out of memory
    "let.samples_per_triplet": (int, 200, (1, 100_000)),
    "pmap.feature_set": (str, None, None),
    "mce.k_groups": (int, None, (1, None)),
    "dissect.external": (str, None, None),
    "dissect.knn_k": (int, 20, (1, None)),
    "rma.responses": (list, REQUIRED, None),
    "rma.major_candidates": (list, [], None),
    "rma.majors": (list, None, None),
    "rma.minors": (list, [], None),
    "rma.threshold": (float, MAJOR_SCORE_THRESHOLD, None),
    "rma.bins_per_major": (int, None, (1, None)),
    "rma.bin_subset": (dict, None, None),
    "rma.bin_subset.*": (list, [], None),
    "rma.k_star": (int, 20, (1, None)),
    "rma.ols": (dict, None, None),
    "rma.ols.response": (str, REQUIRED, None),
    "rma.ols.covariates": (list, REQUIRED, None),
    "rma.ols.per_label": (bool, True, None),
    "synth.kind": (str, None, None),
    "synth.params": (dict, {}, None),
}


def stage_seed(seed, stage):
    """Derive a per-stage seed from the global one (documented counter scheme)."""
    return derived_seed(seed, STAGE_OFFSETS[stage])


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2; route flag problems through the
    # config-error path instead so exit codes follow the documented mapping
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="ceda", description="categorical exploratory data analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="global seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored: every command is single-threaded")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    common(p)
    p.add_argument("--kind", help="gauss-clouds | magnus-manifold | linear-speed")
    p.add_argument("--params", help="JSON object of generator parameters")

    for name, descr in [
        ("mce", "pairwise mutual conditional entropy matrix and feature ranking"),
        ("let", "label embedding tree artifacts"),
        ("pmap", "predictive map on a feature set"),
        ("chain", "chained feature-set refinement tables"),
        ("dissect", "dissect an external classifier against the chain"),
        ("rma", "response manifold analytics"),
    ]:
        common(sub.add_parser(name, help=descr))
    return parser


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(args):
    cfg = {}
    if args.config:
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
        if not isinstance(cfg, dict):
            raise ConfigError("config %s: top level must be an object" % path)
        for section in sorted({p.split(".")[0] for p in SETTINGS if "." in p} - set(SETTINGS)):
            if section in cfg and not isinstance(cfg[section], dict):
                raise ConfigError("config %s: section '%s' must be an object" % (path, section))
        _warn_unknown_keys(cfg)
    # a flag overrides the config; the manifest hashes the effective config, defaults included
    for key, flag in (("seed", args.seed), ("out_dir", args.out or None)):
        cfg[key] = setting(cfg if flag is None else {key: flag}, key)
    return cfg


def _warn_unknown_keys(node, pattern="", name=""):
    """Warn about the keys of config object node, and of every object inside
    it, that SETTINGS does not know.  pattern is node's path in SETTINGS with
    a trailing dot ("" for the whole config), name its path in the config."""
    known = list(dict.fromkeys(p[len(pattern):].split(".")[0] for p in SETTINGS if p.startswith(pattern)))
    if known == ["*"]:
        # members named by the config; only chain entries have keys of their own
        for i, entry in enumerate(node if isinstance(node, list) else ()):
            _warn_unknown_keys(entry, pattern + "*.", "%s[%d]" % (name, i))
    elif isinstance(node, dict):
        unknown = sorted(set(node) - set(known))
        if unknown:
            where = "section '%s'" % name if pattern == name + "." else name or "top level"
            log.warning("config %s: unknown key(s) %s; known keys: %s",
                        where, ", ".join(unknown), ", ".join(sorted(known)))
        for key in known:
            # a chain entry's competition override takes the competition section's keys
            inner = "competition." if key == "competition" else pattern + key + "."
            if key in node and any(p.startswith(inner) for p in SETTINGS):
                _warn_unknown_keys(node[key], inner, "%s.%s" % (name, key) if name else key)


def _read(node, key, entry, name, where):
    """node[key], or the default when node has no key, checked against its
    SETTINGS entry; a ConfigError naming the key otherwise.  where names the
    object or command that requires a REQUIRED key."""
    kind, default, bounds = entry
    value = node.get(key, default)
    if default is REQUIRED and value in (REQUIRED, None, ""):
        raise ConfigError("%s requires config key '%s'" % (where, key))
    if value is None and default is None:
        return None
    check_kind(name, value, kind)
    if bounds and (value < bounds[0] or bounds[1] is not None and value > bounds[1]):
        raise ConfigError("%s must be an integer %s, got %r" % (
            name, ">= %d" % bounds[0] if bounds[1] is None else "in [%d, %d]" % bounds, value))
    return value


def setting(cfg, path, command=None):
    """The value of the config key at a dotted SETTINGS path, or its
    default, checked against the table; when the key's members have an
    entry (path.*), each member is checked too.  command names the command
    that requires a top-level key."""
    parent, _, key = path.rpartition(".")
    node = setting(cfg, parent) if parent in SETTINGS else cfg.get(parent, {}) if parent else cfg
    value = _read(node or {}, key, SETTINGS[path], path, parent or command)
    for member in value if value and path + ".*" in SETTINGS else ():
        _read(value, member, SETTINGS[path + ".*"], "%s.%s" % (path, member), path)
    return value


def _load_dataset(cfg, command):
    return load_csv(setting(cfg, "dataset", command), setting(cfg, "label_column", command),
                    schema=setting(cfg, "schema"))


def _check_features(ds, names, where, numeric=False):
    known = set(ds.table.names)
    for n in names:
        if not isinstance(n, str) or n not in known:
            raise ConfigError("%s: unknown feature '%s'" % (where, n))
        if numeric and ds.table.kind(n) == "categorical":
            raise DataError("%s: feature '%s' is categorical, not numeric" % (where, n))
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise ConfigError("%s repeats the feature '%s'" % (where, repeated))


def _binnings_for(ds, features, cfg):
    target_bins, per_feature = setting(cfg, "binning.target_bins"), setting(cfg, "binning.per_feature")
    for name in per_feature:
        if name not in ds.table.names:
            raise ConfigError("binning.per_feature.%s: unknown feature '%s'" % (name, name))
        kind = "the label column" if name == ds.label_column else ds.table.kind(name)
        if kind != "continuous":
            raise ConfigError("binning.per_feature.%s: '%s' is %s; only continuous columns are binned"
                              % (name, name, kind))
    return default_binnings(ds.table, features, target_bins, per_feature)


def _split(ds, cfg):
    spec = SplitSpec(
        train_fraction=setting(cfg, "split.train_fraction"),
        seed=stage_seed(cfg["seed"], "split"),
        stratified=setting(cfg, "split.stratified"),
    )
    return split_train_test(ds, spec)


def _competition_config(cfg, override=None):
    comp = {**cfg.get("competition", {}), **(override or {})}
    return CompetitionConfig(**{k: v for k, v in comp.items() if "competition." + k in SETTINGS})


def _feature_sets(cfg, ds):
    sets = setting(cfg, "feature_sets")
    if not sets:
        numeric = [n for n in ds.feature_names() if ds.table.kind(n) != "categorical"]
        return {"all": numeric}
    for name, feats in sets.items():
        if not feats:
            raise ConfigError("feature_sets.%s: empty feature list" % name)
        _check_features(ds, feats, "feature_sets.%s" % name)
    return {k: list(v) for k, v in sets.items()}


class Run:
    """Holds one command's artifacts, name -> text or DataTable, until
    finish writes them and the manifest."""

    def __init__(self, command, cfg):
        self.command = command
        self.cfg = cfg
        self.out = Path(cfg["out_dir"])
        self.artifacts = {}

    def write_text(self, name, text):
        self.artifacts[name] = text

    def write_json(self, name, obj):
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            # NaN and Infinity are not JSON (RFC 8259)
            raise ComputationError("%s cannot be written: %s" % (name, exc)) from None
        self.write_text(name, text + "\n")

    def finish(self):
        """Make the out dir and write every artifact, the manifest last."""
        canonical = json.dumps(self.cfg, sort_keys=True, separators=(",", ":"))
        self.write_json("manifest.json", {
            "command": self.command,
            "version": VERSION,
            "seed": int(self.cfg["seed"]),
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "artifacts": sorted(self.artifacts),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        })
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            for name, content in self.artifacts.items():
                if isinstance(content, str):
                    (self.out / name).write_text(content)
                else:
                    write_csv(content, self.out / name)
                log.info("wrote %s", self.out / name)
        except OSError as exc:
            raise ConfigError("cannot write out_dir %s: %s" % (self.out, exc.strerror or exc)) from None


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, cfg, run):
    kind = args.kind or setting(cfg, "synth.kind")
    if not kind:
        raise ConfigError("synth requires --kind or config synth.kind")
    params = setting(cfg, "synth.params")
    if args.params:
        try:
            params = check_kind("--params", json.loads(args.params), dict)
        except json.JSONDecodeError as exc:
            raise ConfigError("--params is not valid JSON: %s" % exc)
    seed = stage_seed(cfg["seed"], "synth")
    ds = synth_generate(kind, params, seed=seed)
    run.artifacts["dataset.csv"] = ds.table
    run.write_json("dataset_truth.json", {
        "kind": kind, "params": params, "stage_seed": seed,
        "labels": list(ds.labels), "n_rows": ds.n_rows,
        "columns": {c.name: c.kind for c in ds.table.columns},
    })
    return "synth: %d rows, %d labels -> %s" % (ds.n_rows, len(ds.labels), run.out / "dataset.csv")


def cmd_mce(args, cfg, run):
    ds = _load_dataset(cfg, "mce")
    features = setting(cfg, "features") or ds.feature_names()
    _check_features(ds, features, "features")
    binnings = _binnings_for(ds, features, cfg)
    matrix = mce_matrix(ds.table, binnings=binnings, features=features)
    k = setting(cfg, "mce.k_groups") or min(5, len(matrix.features))
    if k > len(matrix.features):
        raise ConfigError("mce.k_groups must be an integer in [1, %d], the usable feature count, got %d"
                          % (len(matrix.features), k))
    run.write_json("binning_report.json", {n: b.to_report() for n, b in sorted(binnings.items())})
    run.write_text("mce_matrix.csv", matrix.to_csv_text())
    run.write_json("mce_groups.json", {
        "k": k, "order": matrix.features, "groups": matrix.groups(k),
    })
    rows = [["feature", "label_to_feature", "feature_to_label"]]
    rows += [[name, "%.10g" % fwd, "%.10g" % bwd]
             for name, fwd, bwd in rank_features_by_label_association(ds, binnings)]
    run.write_text("feature_rank.csv", csv_text(rows))
    i, j = np.unravel_index(
        np.argmin(matrix.values + np.eye(len(matrix.features))), matrix.values.shape)
    return "mce: %d features; closest pair (%s, %s) at %.4f" % (
        len(matrix.features), matrix.features[i], matrix.features[j], matrix.values[i, j])


def _split_with_feature_set(cfg, command):
    """Load and split the dataset and pick the command's feature set."""
    ds = _load_dataset(cfg, command)
    train, test = _split(ds, cfg)
    sets = _feature_sets(cfg, ds)
    chosen = setting(cfg, command + ".feature_set")
    if chosen is None:
        chosen = next(iter(sets))
    if chosen not in sets:
        raise ConfigError("%s.feature_set: unknown feature set '%s'" % (command, chosen))
    return train, test, chosen, sets[chosen]


def cmd_let(args, cfg, run):
    train, _, set_name_, features = _split_with_feature_set(cfg, "let")
    T = setting(cfg, "let.samples_per_triplet")
    seed = stage_seed(cfg["seed"], "let")
    if len(train.labels) >= 3:
        dm = sample_triplet_orderings(train, features, samples_per_triplet=T, seed=seed)
        run.write_text("dominance.csv", dm.to_csv_text())
        distance = dominance_to_distance(dm)
        rows = [["label"] + list(train.labels)]
        rows += [[lab] + ["%.10g" % v for v in row] for lab, row in zip(train.labels, distance)]
        run.write_text("label_distance.csv", csv_text(rows))
        tree = build_label_tree(distance, train.labels)
    else:
        tree = tree_from_training(train, features, samples_per_triplet=T, seed=seed)
    run.write_text("tree.newick", tree.to_newick() + "\n")
    run.write_json("tree.json", tree.to_json_dict())
    return "let: %d labels on feature set '%s' -> %s" % (len(train.labels), set_name_, tree.to_newick())


def cmd_pmap(args, cfg, run):
    train, test, set_name_, features = _split_with_feature_set(cfg, "pmap")
    comp = _competition_config(cfg)
    tree = tree_from_training(train, features, samples_per_triplet=setting(cfg, "let.samples_per_triplet"),
                              seed=stage_seed(cfg["seed"], "let"))
    table, (stop, _, steps) = predictive_map(test, tree, train, features, cfg=comp)
    doc = table.to_json_dict()
    for entry, cat in zip(doc["categories"], table.categories):
        entry["labels"] = list(cat.labels)
    doc.update(feature_set=set_name_, config=dataclasses.asdict(comp))
    paths = [[] for _ in range(test.n_rows)]
    for node, rows, decisions in steps:
        for row, decision in zip(rows.tolist(), decisions.tolist()):
            paths[row].append("%d:%s" % (node, DECISIONS[decision]))
    points = [["row", "true", "category", "stop_node", "path"]]
    points += [[row, true, category, node, " ".join(path)] for row, (true, category, node, path) in enumerate(
        zip(test.label_values, table.row_names(test.n_rows), stop.tolist(), paths))]
    run.artifacts["split_test.csv"] = test.table
    run.write_text("pmap_%s.csv" % set_name_, table.to_csv_text())
    run.write_json("pmap_%s.json" % set_name_, doc)
    run.write_text("pmap_%s_points.csv" % set_name_, csv_text(points))
    run.write_json("pies.json", table.per_label_proportions())
    return "pmap: %d test points, %.1f%% singleton, %d categories" % (
        test.n_rows, 100 * table.singleton_fraction(), len(table.categories))


def _chain_from_config(cfg, ds):
    sets = _feature_sets(cfg, ds)
    links = []
    for i, entry in enumerate(setting(cfg, "chain") or list(sets)):
        where = "chain[%d]" % i
        if isinstance(entry, str):
            entry = {"set": entry}
        elif not isinstance(entry, dict):
            raise ConfigError("%s: expected a set name or object" % where)
        name = _read(entry, "set", SETTINGS["chain.*.set"], where + ".set", where)
        override = _read(entry, "competition", SETTINGS["chain.*.competition"], where + ".competition", where)
        if name not in sets:
            raise ConfigError("%s: unknown feature set '%s'" % (where, name))
        try:
            comp = _competition_config(cfg, override)
        except ConfigError as exc:
            _competition_config(cfg)  # an error in the competition section keeps its text
            raise ConfigError("%s.%s" % (where, exc)) from None
        links.append(ChainLink(name=name, features=tuple(sets[name]), cfg=comp))
    return FeatureChain(links)


def _run_chain(cfg, command):
    ds = _load_dataset(cfg, command)
    train, test = _split(ds, cfg)
    chain = _chain_from_config(cfg, ds)
    result = chain_categories(test, train, chain, samples_per_triplet=setting(cfg, "let.samples_per_triplet"),
                              seed=stage_seed(cfg["seed"], "chain"))
    return train, test, result


def cmd_chain(args, cfg, run):
    _, test, result = _run_chain(cfg, "chain")
    run.artifacts["split_test.csv"] = test.table
    for depth, table in enumerate(result.tables, start=1):
        doc = table.to_json_dict()
        for entry, cat in zip(doc["categories"], table.categories):
            entry["path"] = [list(s) for s in cat.key]
        doc.update(depth=depth, links=[l.name for l in result.chain.links[:depth]])
        run.write_text("chain_depth%d.csv" % depth, table.to_csv_text())
        run.write_json("chain_depth%d.json" % depth, doc)
    # each row's category at every depth, blank once it has stopped refining
    rows = [["row", "true"] + ["depth%d" % d for d in range(1, len(result.tables) + 1)]]
    rows += [[row, *cells] for row, cells in enumerate(
        zip(test.label_values, *(table.row_names(test.n_rows) for table in result.tables)))]
    run.write_text("chain_rows.csv", csv_text(rows))
    conserved = result.verify_conservation()
    run.write_json("chain_summary.json", {
        "depths": len(result.tables),
        "links": [l.name for l in result.chain.links],
        "conserved": conserved,
        "final_certain_fraction": sum(
            1 for c in result.final_category_per_row if c.certain) / test.n_rows,
    })
    return "chain: %d depths, conservation %s" % (len(result.tables), "ok" if conserved else "VIOLATED")


def cmd_dissect(args, cfg, run):
    train, test, result = _run_chain(cfg, "dissect")
    run.artifacts["split_test.csv"] = test.table
    source = setting(cfg, "dissect.external")
    if source:
        external = load_external_predictions(source)
    else:
        chain0 = result.chain.links[0]
        k = setting(cfg, "dissect.knn_k")
        preds = knn_baseline_predict(train, test, list(chain0.features), k=k)
        external = dict(enumerate(preds))
        source = "builtin-knn(k=%d)" % k
        run.write_text("baseline_predictions.csv",
                       csv_text([["row_id", "predicted_label"]] + [[i, p] for i, p in enumerate(preds)]))
    report = dissect_external(external, result)
    run.write_text("dissection.csv", report.to_csv_text())
    summary = {"source": source, **report.to_json_dict()}
    run.write_json("dissection.json", summary)
    return "dissect: " + ", ".join("%s=%d" % (k, v) for k, v in sorted(summary["totals"].items()))


def cmd_rma(args, cfg, run):
    ds = _load_dataset(cfg, "rma")
    responses, candidates, minors, majors = (
        setting(cfg, "rma." + key) for key in ("responses", "major_candidates", "minors", "majors"))
    for key, names, numeric in (("responses", responses, True), ("major_candidates", candidates, False),
                                ("minors", minors, False), ("majors", majors or [], True)):
        _check_features(ds, names, "rma." + key, numeric)
    ols = setting(cfg, "rma.ols")
    if ols:
        ols_response, ols_covariates, per_label = (
            setting(cfg, "rma.ols." + key) for key in ("response", "covariates", "per_label"))
        _check_features(ds, [ols_response], "rma.ols.response", numeric=True)
        _check_features(ds, ols_covariates, "rma.ols.covariates", numeric=True)
    covariates = list(dict.fromkeys(candidates + (majors or []) + minors))
    if not covariates:
        raise ConfigError("rma needs major_candidates, majors or minors")
    spec = ResponseSpec(responses=tuple(responses), covariates=tuple(covariates))
    train, test = _split(ds, cfg)
    needed = list(responses) + covariates
    binnings = _binnings_for(train, needed, cfg)
    bins_per_major = setting(cfg, "rma.bins_per_major")
    threshold = setting(cfg, "rma.threshold")
    joint = joint_response_codes(train.table, spec, binnings) if candidates else None
    scores = [score_major_candidate(train.table, spec, cand, binnings, threshold, joint) for cand in candidates]
    if not majors:
        majors = [s.feature for s in scores if s.is_major]
        if not majors:
            raise DataError("no candidate reached the major-feature threshold %.3g" % threshold)
    major_binnings = dict(binnings)
    if bins_per_major is not None:
        major_binnings.update(default_binnings(train.table, majors, bins_per_major))
    lattice = build_locality_lattice(train.table, spec, majors, major_binnings,
                                     bin_subset=setting(cfg, "rma.bin_subset"))
    minor_cands = minors or [c for c in candidates if c not in majors]
    entropy = minor_feature_entropy(lattice, train.table, minor_cands, binnings) if minor_cands else None
    Xte = feature_matrix(test.table, majors)
    truths = feature_matrix(test.table, responses)
    predictions = rma_predict_rows(Xte, {m: test.table.values(m) for m in minors}, lattice,
                                   train.table, k_star=setting(cfg, "rma.k_star"), minor_binnings=binnings)
    report = error_metrics(predictions, truths, lattice, train.table)
    fits = ols_fit(train, ols_response, ols_covariates, per_label=per_label) if ols else None
    if scores:
        rows = [["feature", "score", "threshold", "is_major"]]
        rows += [[s.feature, "%.10g" % s.score, "%.10g" % s.threshold, int(s.is_major)] for s in scores]
        run.write_text("rma_scores.csv", csv_text(rows))
        run.write_json("rma_dispersion.json", {
            s.feature: s.per_bin_dispersion for s in scores})
    run.write_json("rma_binnings.json", {
        n: b.to_report() for n, b in sorted(major_binnings.items()) if n in majors or n in minors})
    run.write_json("rma_lattice.json", lattice.to_json_dict())
    if entropy is not None:
        run.write_text("rma_minor_entropy.csv", entropy.to_csv_text())
    run.write_text("rma_errors.csv", report.to_csv_text())
    rows = [["row", "patch", "flags"] + ["pred_%s" % r for r in responses] + ["true_%s" % r for r in responses]]
    for i, (cell, flags, pred, true) in enumerate(zip(predictions.cells.tolist(), predictions.flags.tolist(),
                                                      predictions.values.tolist(), truths.tolist())):
        rows.append([i, lattice.cell_name(cell), "|".join(compress(FLAGS, flags))]
                    + ["%.10g" % v for v in pred] + ["%.10g" % v for v in true])
    run.write_text("rma_plotdata.csv", csv_text(rows))
    if fits is not None:
        run.write_text("rma_ols.csv", ols_report_text(fits, ols_covariates))
    pooled = report.patches[-1]
    return "rma: majors %s, %d patches, pooled mse %s" % (
        "+".join(majors), len(lattice.cells), ", ".join("%s=%.4g" % (r, pooled.mse[r]) for r in responses))


COMMANDS = {
    "synth": cmd_synth,
    "mce": cmd_mce,
    "let": cmd_let,
    "pmap": cmd_pmap,
    "chain": cmd_chain,
    "dissect": cmd_dissect,
    "rma": cmd_rma,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        run = Run(args.command, cfg)
        summary = COMMANDS[args.command](args, cfg, run)
        run.finish()
    except CedaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return ComputationError.exit_code
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
