#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ceda CLI.

Run from the repository root:

    python3 bench/run.py --workload clouds-chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload wide-labels --seed 1 --trace 1
    python3 bench/run.py --smoke
    python3 bench/run.py --workload manifold-rma --seed 3 --record

One run is this process.  It imports ``ceda.cli`` from ``src/``, writes the
workload's seeded inputs (one or more, see ``workloads.py``), then calls
``ceda.cli.main([...])`` in-process for each command of the workload, in
order, on each input, and checks every command's output.  Commands are
timed in CPU seconds of this process (see ``cpu_time``); an untraced run
also scales each time to a nominal machine speed (see ``speed.py``).

* ``--trace 0`` repeats that pass while another one fits in ``--seconds``
  and reports end-to-end metrics: each command's median over every pass
  and input, the sum of those medians, the median import time of
  ``ceda.cli`` over fresh interpreters, and the peak resident memory of
  this process.
* ``--trace 1`` runs the sequence on the first input once untraced and once
  with spans around the calls into each layer, re-runs the workload's
  scaling command at 1/2 and 1/4 of the rows, and reports per-layer metrics.
* ``--smoke`` runs every workload on tiny inputs through both paths.
* ``--record`` stores the output content of the first input, whose seed is
  the run seed, as the reference for its workload, scale and seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, per-command times, per-layer self times
and the environment.  Everything is written under ``.bench_work/``.
"""

import os

# BLAS and OpenMP read these once, when numpy is first imported; every run
# and every import probe is single-threaded.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from checks import check, compare, summary  # noqa: E402
from spans import Tracer, layer_metrics, layer_self_times, scaling_exponent  # noqa: E402
from workloads import WORKLOADS, expected_test_counts, input_seeds, nested_subset, write_dataset  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"

SETUP_PROBES = 5
AVAILABLE_CPUS = sorted(os.sched_getaffinity(0))
PROBE = ("import time; t = time.process_time(); import ceda.cli; "
         "t = time.process_time() - t; import ceda; print(t, ceda.__file__)")


class BenchError(Exception):
    """The benchmark itself cannot run here (no program source, failed probe)."""


def import_probe():
    """CPU seconds to import ceda.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError("import probe failed: %s" % out.stderr.strip()[-500:])
    seconds, path = out.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError("import probe loaded ceda from %s, not %s" % (path, SRC))
    return float(seconds)


def environment(seed):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ceda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(AVAILABLE_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def cpu_time():
    """CPU seconds used so far by this process and its waited-for children.

    Commands are timed with this clock rather than the wall clock: every
    command runs single-threaded, so the two agree on an idle machine, but
    CPU time leaves out the time a shared host hands the core to another
    tenant."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Input:
    """One seeded input of a workload: its data, config and expected counts."""

    def __init__(self, workload, seed, scale, root):
        self.workload = workload
        self.seed = seed
        self.dir = root / ("s%d" % seed)
        self.dir.mkdir(parents=True)
        self.columns = workload.generate(seed, scale)
        self.config, self.expect = self.write(self.columns, "full")
        self.reference = _load_references(workload.name).get("%s/%d" % (scale, seed))

    def write(self, columns, tag):
        """Dataset CSV and config for ``columns``; (config path, expectations)."""
        data = self.dir / ("data_%s.csv" % tag)
        write_dataset(columns, data)
        cfg = self.dir / ("config_%s.json" % tag)
        cfg.write_text(json.dumps(self.workload.config(data, self.seed), indent=2))
        counts = expected_test_counts(columns)
        return cfg, {"test_counts": counts, "n_test": sum(counts.values()),
                     "features": [n for n in columns if n != "label"]}

    def scaled(self, fraction):
        """Config and expectations for the nested subset at ``fraction`` of the rows."""
        columns = nested_subset(self.columns, fraction, self.seed)
        config, expect = self.write(columns, "%g" % fraction)
        return config, expect, len(columns["label"])


class Run:
    """One workload at one seed and scale: its inputs, command execution, checks."""

    def __init__(self, cli, workload, seed, scale):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.dir = WORK / "runs" / ("%s-%s-s%d-p%d" % (workload.name, scale, seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = [Input(workload, s, scale, self.dir) for s in input_seeds(seed, workload.inputs)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.content = {}

    def execute(self, command, item, config=None, expect=None, tracer=None):
        """Run one command in-process on one input; returns (CPU seconds, wall seconds, output directory)."""
        out = item.dir / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(config or item.config), "--out", str(out), "--threads", "1"]
        call = self.cli.main if tracer is None else (lambda a: tracer.span("cli." + command, self.cli.main, a))
        self.attempted += 1
        before = len(self.problems)
        code = None
        with contextlib.redirect_stdout(sys.stderr):
            wall, cpu = time.perf_counter(), cpu_time()
            try:
                code = call(argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                self.problems.append("%s raised %s: %s" % (command, type(exc).__name__, exc))
            cpu, wall = cpu_time() - cpu, time.perf_counter() - wall
        if code is not None and code != 0:
            self.problems.append("%s exited %r" % (command, code))
        if code == 0:
            # scaled subsets have no reference; their invariants are still checked
            self._check(command, item, out, expect or item.expect, with_reference=config is None)
        self.failed += len(self.problems) > before
        return cpu, wall, out

    def _check(self, command, item, out, expect, with_reference):
        problems, content = check(command, out, expect)
        self.problems += problems
        if content is None or not with_reference:
            return
        self.content.setdefault(item.seed, {})[command] = summary(command, content)
        if item.reference is not None and command in item.reference:
            self.problems += compare(command, self.content[item.seed][command], item.reference[command])

    def run_commands(self, inputs=None, tracer=None):
        """Every command in order on each input; {command: [(CPU, wall seconds) per input]}."""
        times = {c: [] for c in self.workload.commands}
        for item in inputs or self.inputs:
            for command in self.workload.commands:
                times[command].append(self.execute(command, item, tracer=tracer)[:2])
        return times

    def references(self):
        return sum(item.reference is not None for item in self.inputs)

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _load_references(name):
    path = REFERENCE / ("%s.json" % name)
    return json.loads(path.read_text()) if path.exists() else {}


def measure_untraced(run, seconds, probes):
    """End-to-end metrics: per-command medians over every pass and input, of
    CPU times scaled to the nominal machine speed."""
    speeds = [speed.probe()]

    def bracketed(fn, *args):
        """fn's result, and the speed probes just before and just after it."""
        result = fn(*args)
        speeds.append(speed.probe())
        return result, speeds[-2], speeds[-1]

    setup = [bracketed(import_probe) for _ in range(probes)]
    commands = run.workload.commands
    samples = {c: [] for c in commands}  # ((CPU, wall, output), probe before, probe after)

    def one_pass():
        for item in run.inputs:
            for command in commands:
                samples[command].append(bracketed(run.execute, command, item))

    start = time.perf_counter()
    one_pass()
    passes = 1
    # another pass only if it should end within the budget
    while (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        one_pass()
        passes += 1

    scaled = {c: statistics.median(speed.scale(t[0], *b) for t, *b in samples[c]) for c in commands}
    cpu = {c: statistics.median(t[0] for t, *_ in samples[c]) for c in commands}
    wall = {c: statistics.median(t[1] for t, *_ in samples[c]) for c in commands}
    metrics = {
        "setup_s": statistics.median(speed.scale(t, *b) for t, *b in setup),
        "total_s": sum(scaled.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": passes, "speed_probes": speeds, "per_command_median": scaled,
        "per_command_cpu_median": cpu, "per_command_wall_median": wall,
        "setup_samples": [t for t, *_ in setup],
        "command_samples": {c: [[t[0], t[1], *b] for t, *b in samples[c]] for c in commands},
        "unscaled": {"setup_s": statistics.median(t for t, *_ in setup), "total_s": sum(cpu.values())},
    }
    return metrics, detail


def measure_traced(run, units):
    """Per-layer metrics from one traced pass over the first input, next to one untraced pass."""
    item = run.inputs[0]
    untraced = {c: t[0][0] for c, t in run.run_commands([item]).items()}
    tracer = Tracer()
    tracer.install()
    try:
        traced = {}
        bytes_written = 0
        for command in run.workload.commands:
            traced[command], _, out = run.execute(command, item, tracer=tracer)
            bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    finally:
        tracer.uninstall()
    spans = tracer.spans
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "traces" / ("%s-%s-s%d-p%d.json" % (run.workload.name, run.scale, run.seed, os.getpid())))

    metrics = {name: 0.0 for name in units}
    metrics.update(layer_metrics(spans, bytes_written))
    metrics["trace_overhead_frac"] = sum(traced.values()) / sum(untraced.values()) - 1.0

    # layer self times must add up to each command's traced time
    roots = {rec[0]: rec[2] - rec[1] for rec in spans if rec[3] < 0}
    layers = layer_self_times(spans)
    for command, duration in roots.items():
        if abs(sum(layers[command].values()) - duration) > 1e-6 * max(1.0, duration):
            run.problems.append("layer self times of %s do not sum to its span" % command)

    scaling = {}
    command = run.workload.scaling_command
    if command:
        sizes, times = [len(item.columns["label"])], [untraced[command]]
        for fraction in (0.5, 0.25):
            config, expect, n = item.scaled(fraction)
            seconds, _, _ = run.execute(command, item, config=config, expect=expect)
            sizes.append(n)
            times.append(seconds)
        layer = "rma" if command == "rma" else "predictive_map"
        metrics[layer + ".scaling_exp"] = scaling_exponent(sizes, times)
        scaling = {"command": command, "rows": sizes, "seconds": times}
    detail = {"untraced": untraced, "traced": traced, "layer_self_s": layers,
              "scaling": scaling, "spans": len(spans)}
    return metrics, detail


def load_units():
    """Metric units from BENCHMARK.json: (end to end, per layer)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def run_workload(cli, workload, seed, seconds, trace, units, scale="full", probes=SETUP_PROBES):
    run = Run(cli, workload, seed, scale)
    try:
        if trace:
            metrics, detail = measure_traced(run, units)
        else:
            metrics, detail = measure_untraced(run, seconds, probes)
    finally:
        run.cleanup()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {"workload": workload.name, "scale": scale, "trace": trace, "seconds": seconds,
              "environment": environment(seed), "problems": run.problems,
              "inputs": [item.seed for item in run.inputs], "references_checked": run.references(),
              "detail": detail, "result": result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / ("%s-%s-s%d-trace%d-p%d.json" % (workload.name, scale, seed, trace, os.getpid()))
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return result, record


def report(result, record, units):
    """Human-readable lines; the caller prints the result line last."""
    lines = ["env " + json.dumps(record["environment"], sort_keys=True)]
    detail = record["detail"]
    lines.append("workload %s scale %s seed %d trace %d inputs %s references_checked %d" % (
        record["workload"], record["scale"], record["environment"]["seed"], record["trace"],
        record["inputs"], record["references_checked"]))
    if record["trace"]:
        for command, layers in sorted(detail["layer_self_s"].items()):
            lines.append("self %s total %.4f s: %s" % (command, sum(layers.values()), ", ".join(
                "%s %.4f" % kv for kv in sorted(layers.items(), key=lambda kv: -kv[1]))))
        if detail["scaling"]:
            lines.append("scaling %s rows %s seconds %s" % (
                detail["scaling"]["command"], detail["scaling"]["rows"],
                ["%.4f" % t for t in detail["scaling"]["seconds"]]))
    else:
        lines.append("speed probe median %.4f s over %d probes, nominal %r s" % (
            statistics.median(detail["speed_probes"]), len(detail["speed_probes"]), speed.NOMINAL_PROBE_S))
        lines += ["unscaled %s %r s (CPU)" % kv for kv in detail["unscaled"].items()]
        n = (detail["passes"], len(record["inputs"]))
        for command, seconds in detail["per_command_median"].items():
            lines.append("metric %s_s %.4f s (median over %d passes x %d inputs; unscaled CPU %.4f s, wall %.4f s)" % (
                (command, seconds) + n + (detail["per_command_cpu_median"][command],
                                          detail["per_command_wall_median"][command])))
    for name, value in result["metrics"].items():
        lines.append("metric %s %r %s" % (name, value, units.get(name, "")))
    lines.append("metric failed_frac %r ratio (%d of %d commands)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    lines += ["problem " + p for p in record["problems"]]
    return lines


def result_line(result, units):
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def record_reference(cli, workload, seed, scale):
    """Run the commands once on the run's first input (whose seed is the run
    seed) and store their output content as its reference."""
    run = Run(cli, workload, seed, scale)
    item = run.inputs[0]
    item.reference = None
    try:
        run.run_commands([item])
    finally:
        run.cleanup()
    if run.problems:
        raise BenchError("not recording a failing run: %s" % "; ".join(run.problems))
    path = REFERENCE / ("%s.json" % workload.name)
    refs = _load_references(workload.name)
    refs["%s/%d" % (scale, seed)] = run.content[seed]
    path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    print("recorded %s %s/%d" % (workload.name, scale, seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring budget of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload on tiny inputs, both paths")
    parser.add_argument("--record", action="store_true", help="store the reference content for this seed")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="input size for --record")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    # one core for the whole run, import probes included, so that the speed
    # probes see the core the commands run on
    os.sched_setaffinity(0, {AVAILABLE_CPUS[-1]})
    if not (SRC / "ceda" / "cli.py").is_file():
        print("bench: no program source at %s" % (SRC / "ceda"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ceda.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print("bench: ceda was imported from %s, not %s" % (cli.__file__, SRC), file=sys.stderr)
        return 2
    end_to_end, per_layer = load_units()
    units = per_layer if args.trace else end_to_end
    try:
        if args.record:
            record_reference(cli, WORKLOADS[args.workload], args.seed, args.scale)
            return 0
        if args.smoke:
            return smoke(cli, WORKLOADS, args.seed, end_to_end, per_layer)
        result, record = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, args.trace, units)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(report(result, record, units)))
    print(result_line(result, units), flush=True)
    return 0


def smoke(cli, workloads, seed, end_to_end, per_layer):
    """Every workload on tiny inputs through the untraced and traced paths."""
    ok = True
    for workload in workloads.values():
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result, record = run_workload(cli, workload, seed, 0.0, trace, units, scale="smoke", probes=1)
            print("\n".join(report(result, record, units)))
            print(result_line(result, units))
            ok = ok and result["correct"]
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
