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

The config file is JSON.  Typical keys: dataset, label_column, schema,
split.train_fraction, binning.target_bins, feature_sets, chain, competition,
let.samples_per_triplet, dissect.external or dissect.knn_k, rma.*, seed,
out_dir (CONFIG_KEYS lists them all; unknown keys draw a warning).  Command
line --seed/--out override the config; --threads is accepted and ignored.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 computation
error.

Every run writes a manifest.json recording the command, package version,
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
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from .association import mce_matrix, rank_features_by_label_association
from .chain import (
    ChainLink,
    FeatureChain,
    chain_categories,
    dissect_external,
    knn_baseline_predict,
    load_external_predictions,
)
from .dataset import SplitSpec, csv_text, load_csv, split_train_test, synth_generate, write_csv
from .discretize import build_histogram
from .errors import CedaError, ConfigError, DataError
from .label_tree import dominance_to_distance, sample_triplet_orderings, tree_from_training
from .predictive_map import CompetitionConfig, predictive_map
from .rma import (
    ResponseSpec,
    build_locality_lattice,
    error_metrics,
    minor_feature_entropy,
    ols_fit,
    ols_report_text,
    rma_predict,
    score_major_candidate,
)

log = logging.getLogger("ceda")

STAGE_OFFSETS = {"synth": 0, "split": 1, "let": 2, "pmap": 3, "chain": 4, "dissect": 5, "rma": 6}

# known keys of the config's top level (None) and of its sections
CONFIG_KEYS = {
    None: ("binning", "chain", "competition", "dataset", "dissect", "feature_sets", "features",
           "label_column", "let", "mce", "out_dir", "pmap", "rma", "schema", "seed", "split", "synth"),
    "split": ("stratified", "train_fraction"),
    "binning": ("per_feature", "target_bins"),
    "competition": tuple(f.name for f in dataclasses.fields(CompetitionConfig)),
    "let": ("feature_set", "samples_per_triplet"),
    "pmap": ("feature_set",),
    "mce": ("k_groups",),
    "dissect": ("external", "knn_k"),
    "rma": ("bin_subset", "bins_per_major", "k_star", "major_candidates", "majors", "minors",
            "ols", "responses", "threshold"),
    "synth": ("kind", "params"),
}


def stage_seed(seed, stage):
    """Derive a per-stage seed from the global one (documented counter scheme)."""
    return int(np.random.SeedSequence([int(seed), STAGE_OFFSETS[stage]]).generate_state(1)[0])


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
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
        if not isinstance(cfg, dict):
            raise ConfigError("config %s: top level must be an object" % path)
        _warn_unknown_keys(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["out_dir"] = args.out
    cfg.setdefault("seed", 0)
    cfg.setdefault("out_dir", "ceda_out")
    return cfg


def _warn_unknown_keys(cfg):
    for section, known in CONFIG_KEYS.items():
        entries = cfg if section is None else cfg.get(section)
        if not isinstance(entries, dict):
            continue
        unknown = sorted(set(entries) - set(known))
        if unknown:
            log.warning("config %s: unknown key(s) %s; known keys: %s",
                        "top level" if section is None else "section '%s'" % section,
                        ", ".join(unknown), ", ".join(known))


def _require(cfg, key, command):
    if key not in cfg or cfg[key] in (None, ""):
        raise ConfigError("%s requires config key '%s'" % (command, key))
    return cfg[key]


def _load_dataset(cfg, command):
    path = _require(cfg, "dataset", command)
    label = _require(cfg, "label_column", command)
    return load_csv(path, label, schema=cfg.get("schema"))


def _check_features(ds, names, where):
    known = set(ds.table.names)
    for n in names:
        if n not in known:
            raise ConfigError("%s: unknown feature '%s'" % (where, n))


def _binnings_for(table, features, cfg):
    bin_cfg = cfg.get("binning", {})
    target = bin_cfg.get("target_bins")
    per_feature = bin_cfg.get("per_feature", {})
    out = {}
    for name in features:
        col = table.column(name)
        if col.kind != "continuous":
            continue
        out[name] = build_histogram(
            col.values, target_bins=per_feature.get(name, target), feature=name)
    return out


def _split(ds, cfg):
    split_cfg = cfg.get("split", {})
    spec = SplitSpec(
        train_fraction=float(split_cfg.get("train_fraction", 0.8)),
        seed=stage_seed(cfg["seed"], "split"),
        stratified=bool(split_cfg.get("stratified", True)),
    )
    return split_train_test(ds, spec)


def _competition_config(cfg, override=None):
    comp = dict(cfg.get("competition", {}))
    comp.update(override or {})
    kwargs = {}
    for key in CONFIG_KEYS["competition"]:
        if key in comp:
            kwargs[key] = comp[key]
    return CompetitionConfig(**kwargs)


def _feature_sets(cfg, ds):
    sets = cfg.get("feature_sets")
    if not sets:
        numeric = [n for n in ds.feature_names() if ds.table.kind(n) != "categorical"]
        return {"all": numeric}
    if not isinstance(sets, dict):
        raise ConfigError("feature_sets must map names to feature lists")
    for name, feats in sets.items():
        if not feats:
            raise ConfigError("feature_sets.%s: empty feature list" % name)
        _check_features(ds, feats, "feature_sets.%s" % name)
    return {k: list(v) for k, v in sets.items()}


def _pick_set(cfg, sets, key):
    section = cfg.get(key, {})
    chosen = section.get("feature_set") if isinstance(section, dict) else None
    if chosen is None:
        chosen = next(iter(sets))
    if chosen not in sets:
        raise ConfigError("%s.feature_set: unknown feature set '%s'" % (key, chosen))
    return chosen


class Run:
    """Collects artifacts for one command and writes the manifest."""

    def __init__(self, command, cfg):
        self.command = command
        self.cfg = cfg
        self.out = Path(cfg["out_dir"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts = []

    def write_text(self, name, text):
        (self.out / name).write_text(text)
        self.artifacts.append(name)
        log.info("wrote %s", self.out / name)

    def write_json(self, name, obj):
        self.write_text(name, json.dumps(obj, sort_keys=True, indent=2) + "\n")

    def path_for(self, name):
        self.artifacts.append(name)
        return self.out / name

    def finish(self):
        canonical = json.dumps(self.cfg, sort_keys=True, separators=(",", ":"))
        manifest = {
            "command": self.command,
            "version": VERSION,
            "seed": int(self.cfg["seed"]),
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "artifacts": sorted(self.artifacts),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        log.info("wrote %s", self.out / "manifest.json")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    cfg = _load_config(args)
    synth_cfg = dict(cfg.get("synth", {}))
    kind = args.kind or synth_cfg.get("kind")
    if not kind:
        raise ConfigError("synth requires --kind or config synth.kind")
    params = synth_cfg.get("params", {})
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ConfigError("--params is not valid JSON: %s" % exc)
    seed = stage_seed(cfg["seed"], "synth")
    ds = synth_generate(kind, params, seed=seed)
    run = Run("synth", cfg)
    write_csv(ds.table, run.path_for("dataset.csv"))
    run.write_json("dataset_truth.json", {
        "kind": kind, "params": params, "stage_seed": seed,
        "labels": list(ds.labels), "n_rows": ds.n_rows,
        "columns": {c.name: c.kind for c in ds.table.columns},
    })
    run.finish()
    print("synth: %d rows, %d labels -> %s" % (ds.n_rows, len(ds.labels), run.out / "dataset.csv"))
    return 0


def cmd_mce(args):
    cfg = _load_config(args)
    ds = _load_dataset(cfg, "mce")
    features = cfg.get("features")
    if features:
        _check_features(ds, features, "features")
    else:
        features = ds.feature_names()
    binnings = _binnings_for(ds.table, features, cfg)
    run = Run("mce", cfg)
    run.write_json("binning_report.json", {n: b.to_report() for n, b in sorted(binnings.items())})
    matrix = mce_matrix(ds.table, binnings=binnings, features=features)
    run.write_text("mce_matrix.csv", matrix.to_csv_text())
    k = int(cfg.get("mce", {}).get("k_groups", min(5, len(matrix.features))))
    groups = matrix.groups(k)
    run.write_json("mce_groups.json", {
        "k": k, "order": matrix.features, "groups": groups.groups,
    })
    rows = [["feature", "label_to_feature", "feature_to_label"]]
    fwd = dict(rank_features_by_label_association(ds, binnings, "label_to_feature"))
    bwd = dict(rank_features_by_label_association(ds, binnings, "feature_to_label"))
    for name, value in sorted(fwd.items(), key=lambda kv: (kv[1], kv[0])):
        rows.append([name, "%.10g" % value, "%.10g" % bwd[name]])
    run.write_text("feature_rank.csv", csv_text(rows))
    run.finish()
    i, j = np.unravel_index(
        np.argmin(matrix.values + np.eye(len(matrix.features))), matrix.values.shape)
    print("mce: %d features; closest pair (%s, %s) at %.4f"
          % (len(matrix.features), matrix.features[i], matrix.features[j], matrix.values[i, j]))
    return 0


def _samples_per_triplet(cfg):
    return int(cfg.get("let", {}).get("samples_per_triplet", 200))


def _split_with_feature_set(cfg, command):
    """Load and split the dataset and pick the command's feature set."""
    ds = _load_dataset(cfg, command)
    train, test = _split(ds, cfg)
    sets = _feature_sets(cfg, ds)
    set_name_ = _pick_set(cfg, sets, command)
    return train, test, set_name_, sets[set_name_]


def cmd_let(args):
    cfg = _load_config(args)
    train, _, set_name_, features = _split_with_feature_set(cfg, "let")
    T = _samples_per_triplet(cfg)
    seed = stage_seed(cfg["seed"], "let")
    run = Run("let", cfg)
    if len(train.labels) >= 3:
        dm = sample_triplet_orderings(train, features, samples_per_triplet=T, seed=seed)
        run.write_text("dominance.csv", dm.to_csv_text())
        distance = dominance_to_distance(dm)
        rows = [["label"] + list(train.labels)]
        rows += [[lab] + ["%.10g" % v for v in row] for lab, row in zip(train.labels, distance)]
        run.write_text("label_distance.csv", csv_text(rows))
    tree = tree_from_training(train, features, samples_per_triplet=T, seed=seed)
    run.write_text("tree.newick", tree.to_newick() + "\n")
    run.write_json("tree.json", tree.to_json_dict())
    run.finish()
    print("let: %d labels on feature set '%s' -> %s" % (len(train.labels), set_name_, tree.to_newick()))
    return 0


def cmd_pmap(args):
    cfg = _load_config(args)
    train, test, set_name_, features = _split_with_feature_set(cfg, "pmap")
    tree = tree_from_training(train, features, samples_per_triplet=_samples_per_triplet(cfg),
                              seed=stage_seed(cfg["seed"], "let"))
    comp = _competition_config(cfg)
    table, preds = predictive_map(test, tree, train, features, cfg=comp)
    doc = table.to_json_dict()
    for entry, cat in zip(doc["categories"], table.categories):
        entry["labels"] = list(cat.labels)
    doc.update(feature_set=set_name_, config=dataclasses.asdict(comp), points=[
        {"row": row, "true": str(true), "predicted": [str(l) for l in pred.labels],
         "stop_node": int(pred.stop_node), "path": [[int(n), dec] for n, dec in pred.path]}
        for row, (pred, true) in enumerate(zip(preds, test.label_values))
    ])
    run = Run("pmap", cfg)
    write_csv(test.table, run.path_for("split_test.csv"))
    run.write_text("pmap_%s.csv" % set_name_, table.to_csv_text())
    run.write_json("pmap_%s.json" % set_name_, doc)
    run.write_json("pies.json", table.per_label_proportions())
    run.finish()
    print("pmap: %d test points, %.1f%% singleton, %d categories"
          % (test.n_rows, 100 * table.singleton_fraction(), len(table.categories)))
    return 0


def _chain_from_config(cfg, ds):
    sets = _feature_sets(cfg, ds)
    spec = cfg.get("chain")
    if not spec:
        spec = list(sets)
    links = []
    for i, entry in enumerate(spec):
        if isinstance(entry, str):
            name, override = entry, None
        elif isinstance(entry, dict):
            name, override = entry.get("set"), entry.get("competition")
        else:
            raise ConfigError("chain[%d]: expected a set name or object" % i)
        if name not in sets:
            raise ConfigError("chain[%d]: unknown feature set '%s'" % (i, name))
        links.append(ChainLink(name=name, features=tuple(sets[name]),
                               cfg=_competition_config(cfg, override)))
    return FeatureChain(links)


def _run_chain(cfg, command):
    ds = _load_dataset(cfg, command)
    train, test = _split(ds, cfg)
    chain = _chain_from_config(cfg, ds)
    result = chain_categories(test, train, chain, samples_per_triplet=_samples_per_triplet(cfg),
                              seed=stage_seed(cfg["seed"], "chain"))
    return train, test, result


def cmd_chain(args):
    cfg = _load_config(args)
    _, test, result = _run_chain(cfg, "chain")
    run = Run("chain", cfg)
    write_csv(test.table, run.path_for("split_test.csv"))
    for depth, table in enumerate(result.tables, start=1):
        doc = table.to_json_dict()
        for entry, cat in zip(doc["categories"], table.categories):
            entry.update(path=[list(s) for s in cat.key], rows=[int(r) for r in cat.rows])
        doc.update(depth=depth, links=[l.name for l in result.chain.links[:depth]])
        run.write_text("chain_depth%d.csv" % depth, table.to_csv_text())
        run.write_json("chain_depth%d.json" % depth, doc)
    run.write_json("chain_summary.json", {
        "depths": len(result.tables),
        "links": [l.name for l in result.chain.links],
        "conserved": result.verify_conservation(),
        "final_certain_fraction": sum(
            1 for c in result.final_category_per_row if c.certain) / test.n_rows,
    })
    run.finish()
    print("chain: %d depths, conservation %s" % (
        len(result.tables), "ok" if result.verify_conservation() else "VIOLATED"))
    return 0


def cmd_dissect(args):
    cfg = _load_config(args)
    train, test, result = _run_chain(cfg, "dissect")
    dis_cfg = cfg.get("dissect", {})
    run = Run("dissect", cfg)
    write_csv(test.table, run.path_for("split_test.csv"))
    if dis_cfg.get("external"):
        external = load_external_predictions(dis_cfg["external"])
        source = dis_cfg["external"]
    else:
        chain0 = result.chain.links[0]
        k = int(dis_cfg.get("knn_k", 20))
        preds = knn_baseline_predict(train, test, list(chain0.features), k=k)
        external = dict(enumerate(preds))
        source = "builtin-knn(k=%d)" % k
        run.write_text("baseline_predictions.csv",
                       csv_text([["row_id", "predicted_label"]] + [[i, p] for i, p in enumerate(preds)]))
    report = dissect_external(external, result)
    run.write_text("dissection.csv", report.to_csv_text())
    run.write_json("dissection.json", {"source": source, **report.to_json_dict()})
    run.finish()
    totals = report.to_json_dict()["totals"]
    print("dissect: " + ", ".join("%s=%d" % (k, v) for k, v in sorted(totals.items())))
    return 0


def cmd_rma(args):
    cfg = _load_config(args)
    ds = _load_dataset(cfg, "rma")
    rcfg = cfg.get("rma")
    if not rcfg:
        raise ConfigError("rma requires a config 'rma' section")
    responses = _require(rcfg, "responses", "rma")
    _check_features(ds, responses, "rma.responses")
    candidates = rcfg.get("major_candidates", [])
    _check_features(ds, candidates, "rma.major_candidates")
    minors = rcfg.get("minors", [])
    _check_features(ds, minors, "rma.minors")
    covariates = list(dict.fromkeys(list(candidates) + list(rcfg.get("majors", [])) + list(minors)))
    if not covariates:
        raise ConfigError("rma needs major_candidates, majors or minors")
    spec = ResponseSpec(responses=tuple(responses), covariates=tuple(covariates))
    train, test = _split(ds, cfg)
    needed = list(responses) + covariates
    binnings = _binnings_for(train.table, needed, cfg)
    bins_per_major = rcfg.get("bins_per_major")
    majors = rcfg.get("majors")
    threshold = float(rcfg.get("threshold", 0.35))
    run = Run("rma", cfg)
    scores = []
    for cand in candidates:
        scores.append(score_major_candidate(train.table, spec, cand, binnings, threshold))
    if scores:
        rows = [["feature", "score", "threshold", "is_major"]]
        rows += [[s.feature, "%.10g" % s.score, "%.10g" % s.threshold, int(s.is_major)] for s in scores]
        run.write_text("rma_scores.csv", csv_text(rows))
        run.write_json("rma_dispersion.json", {
            s.feature: s.per_bin_dispersion for s in scores})
    if not majors:
        majors = [s.feature for s in scores if s.is_major]
        if not majors:
            raise DataError("no candidate reached the major-feature threshold %.3g" % threshold)
    _check_features(ds, majors, "rma.majors")
    major_binnings = dict(binnings)
    if bins_per_major:
        for m in majors:
            if train.table.kind(m) == "continuous":
                major_binnings[m] = build_histogram(
                    train.table.values(m), target_bins=int(bins_per_major), feature=m)
    lattice = build_locality_lattice(train.table, spec, majors, major_binnings,
                                     bin_subset=rcfg.get("bin_subset"))
    run.write_json("rma_binnings.json", {
        n: b.to_report() for n, b in sorted(major_binnings.items()) if n in majors or n in minors})
    run.write_json("rma_lattice.json", lattice.to_json_dict())
    minor_cands = minors or [c for c in candidates if c not in majors]
    if minor_cands:
        run.write_text("rma_minor_entropy.csv",
                       minor_feature_entropy(lattice, train.table, minor_cands, binnings).to_csv_text())
    k_star = int(rcfg.get("k_star", 20))
    Xte = np.column_stack([np.asarray(test.table.values(m), dtype=float) for m in majors])
    truths = np.column_stack([np.asarray(test.table.values(r), dtype=float) for r in responses])
    predictions = []
    for i in range(test.n_rows):
        z = {m: test.table.values(m)[i] for m in minors}
        predictions.append(rma_predict(Xte[i], z, lattice, train.table,
                                       k_star=k_star, minor_binnings=binnings))
    report = error_metrics(predictions, truths, lattice, train.table)
    run.write_text("rma_errors.csv", report.to_csv_text())
    rows = [["row", "patch", "flags"] + ["pred_%s" % r for r in responses] + ["true_%s" % r for r in responses]]
    for i, p in enumerate(predictions):
        rows.append([i, lattice.cell_name(p.cell), "|".join(sorted(p.flags))]
                    + ["%.10g" % v for v in p.values] + ["%.10g" % v for v in truths[i]])
    run.write_text("rma_plotdata.csv", csv_text(rows))
    ols_cfg = rcfg.get("ols")
    if ols_cfg:
        _check_features(ds, [ols_cfg["response"]] + list(ols_cfg["covariates"]), "rma.ols")
        fits = ols_fit(train, ols_cfg["response"], list(ols_cfg["covariates"]),
                       per_label=bool(ols_cfg.get("per_label", True)))
        run.write_text("rma_ols.csv", ols_report_text(fits, list(ols_cfg["covariates"])))
    run.finish()
    pooled = report.patches[-1]
    print("rma: majors %s, %d patches, pooled mse %s" % (
        "+".join(majors), len(lattice.cells),
        ", ".join("%s=%.4g" % (r, pooled.mse[r]) for r in responses)))
    return 0


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
        return COMMANDS[args.command](args)
    except CedaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
