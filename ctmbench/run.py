"""ctmdesign benchmark: run one workload, check its outputs, print metrics.

Usage (from the root of a checkout):

    python3 ctmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one ``ctmdesign`` CLI command, run from ``src/`` in a
child process with ``--workers 1``, ``--seed N`` and BLAS pinned to one
thread; the run and its children stay on one CPU.  A round is the
workload's list of commands; the run repeats whole rounds, as many as
the first round's wall time says fit into S seconds (at least one).
Every round uses the same seed, so every round must write the same
artifacts; the first round's artifacts are checked in full
(``checks.py``).

With ``--trace 0`` the run first starts the workload's first command
PROBES times and stops each at its first replicate (set-up probes), then
measures untraced rounds and reports the end-to-end metrics.  With
``--trace 1`` the rounds run under ``tracer.py`` and the run reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.name
OUT_ROOT = ".bench_out"

URBAN = "src/ctmdesign/scenarios/urban.json"
URBAN_DESIGN = "2.5,0.01,0.01,20,75"    # the paper's Table 2 design
URBAN_REPS = 16
HIGHWAY_SMALL = f"{BENCH_DIR}/scenarios/highway_small.json"
SYNTHETIC_SMALL = f"{BENCH_DIR}/scenarios/synthetic_small.json"

# workload -> commands of one round (without --seed/--workers/--out-dir)
WORKLOADS = {
    "urban-simulate": [
        ["simulate", "--config", URBAN, "--design", URBAN_DESIGN,
         "--rule", rule, "--reps", str(URBAN_REPS)]
        for rule in ("dpf", "cooperative")],
    "highway-levelset": [["estimate-levelset", "--config", HIGHWAY_SMALL]],
    "synthetic-levelset": [["estimate-levelset", "--config", SYNTHETIC_SMALL]],
}

PROBES = 3
OP_TIMEOUT_S = 170
BLAS_PIN = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

class Op:
    """Outcome of one child command."""

    def __init__(self, args, out_dir, code, setup_s, stats):
        self.args = args
        self.out_dir = out_dir
        self.code = code
        self.setup_s = setup_s
        self.stats = stats


def run_op(cli_args, out_dir, trace=False, probe=False):
    """Run one CLI command in a child process and wait for it to end."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir.parent / f"{out_dir.name}.stats.json"
    log_path = out_dir.parent / f"{out_dir.name}.log"
    cmd = [sys.executable, str(HERE / "launch.py"), "--src", "src",
           "--stats", str(stats_path)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    cmd += ["--", *cli_args, "--out-dir", str(out_dir)]
    env = {**os.environ, **BLAS_PIN, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        try:
            code = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
    stats = {}
    if stats_path.exists():
        stats = json.loads(stats_path.read_text())
    first = stats.get("first_replicate")
    setup = first - t0 if first is not None else None
    if code != 0:
        sys.stderr.write(f"command failed ({code}): {' '.join(cli_args)}\n"
                         + log_path.read_text()[-2000:])
    return Op(cli_args, out_dir, code, setup, stats)


def run_round(workload, seed, out_dir, trace):
    ops = []
    t0 = time.monotonic()
    for i, args in enumerate(WORKLOADS[workload]):
        full = [*args, "--seed", str(seed), "--workers", "1"]
        ops.append(run_op(full, out_dir / f"op{i}", trace=trace))
    return ops, time.monotonic() - t0


def _artifacts(op_dir):
    """Artifact bytes of one command, the run-specific manifest excluded."""
    return {p.name: p.read_bytes() for p in sorted(op_dir.iterdir())
            if p.name != "manifest.json"}


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def replicates_of(op):
    """Replicates one command simulated, read from its artifacts."""
    if op.args[0] == "simulate":
        return int(op.args[op.args.index("--reps") + 1])
    with open(op.out_dir / "dataset.csv") as fh:
        return sum(int(row["n"]) for row in csv.DictReader(fh))


def per_layer(ops, rounds, round_walls):
    """Per-layer metrics from the span tables of traced commands."""
    spans, counters = {}, {}
    for op in ops:
        trace = op.stats.get("trace", {})
        for name, (calls, total, self_s) in trace.get("spans", {}).items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, n in trace.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters.get("solvers.steps", 0)
    reps = counters.get("evaluation.replicates", 0)
    cand = counters.get("learning.candidates", 0)
    added = counters.get("learning.points_added", 0)
    q_pts = counters.get("gpr.query_points", 0)
    n_ops = len(ops)
    m = {
        "cells.evaluate_us": (ratio(self_s("cells.evaluate"), steps) * 1e6, "us"),
        "solvers.outflows_us": (ratio(self_s("solvers.outflows"), steps) * 1e6, "us"),
        "solvers.inflows_us": (ratio(self_s("solvers.inflows"), steps) * 1e6, "us"),
        "solvers.update_us": (ratio(self_s("solvers.run") + self_s("network.clamp"),
                                    steps) * 1e6, "us"),
        "env.net_flows_us": (ratio(self_s("env.net_flows"), steps) * 1e6, "us"),
        "evaluation.observe_us": (ratio(self_s("evaluation.observe"), steps) * 1e6, "us"),
        "solvers.steps": (steps / rounds, "count"),
        "env.truncations": (counters.get("env.truncations", 0) / rounds, "count"),
        "network.density_clamps": (counters.get("network.density_clamps", 0) / rounds,
                                   "count"),
        "signals.table_ms": (ratio(self_s("signals.table"), reps) * 1e3, "ms"),
        "config.replicate_setup_ms": (ratio(self_s("config.run_replicate"), reps) * 1e3,
                                      "ms"),
        "evaluation.replicates": (reps / rounds, "count"),
        "evaluation.target_stops": (counters.get("evaluation.target_stops", 0) / rounds,
                                    "count"),
        "evaluation.cap_stops": (counters.get("evaluation.cap_stops", 0) / rounds, "count"),
        "gpr.fit_s": (total("gpr.fit") / rounds, "s"),
        "gpr.lml_evals": (calls("gpr.lml") / rounds, "count"),
        "gpr.factor_ms": (ratio(total("gpr.factor"), calls("gpr.factor")) * 1e3, "ms"),
        "gpr.query_points": (q_pts / rounds, "count"),
        "gpr.query_ns_per_point": (ratio(self_s("gpr.query"), q_pts) * 1e9, "ns"),
        "learning.rejection_s": (self_s("learning.rejection") / rounds, "s"),
        "learning.candidates": (cand / rounds, "count"),
        "learning.acceptance_ratio": (ratio(added, cand), "ratio"),
        "learning.nikodym_s": (self_s("learning.nikodym") / rounds, "s"),
        "learning.points_added": (added / rounds, "count"),
        "cli.persist_s": (sum(self_s(n) for n in ("cli.persist", "cli.write_csv",
                                                  "cli.write_grid", "cli.manifest"))
                          / rounds, "s"),
        "cli.bytes_written": (sum(dir_bytes(op.out_dir) for op in ops) / rounds / 1e6,
                              "MB"),
        "config.load_ms": (total("config.load") / n_ops * 1e3, "ms"),
        "config.engine_build_ms": (total("config.engine_build") / n_ops * 1e3, "ms"),
        "cli.import_ms": (statistics.median(op.stats.get("import_ms", 0.0)
                                            for op in ops), "ms"),
        "trace.round_s": (statistics.median(round_walls), "s"),
    }
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ctmdesign" / "cli.py").is_file():
        sys.stderr.write("run.py: no ctmdesign sources under ./src; run it from "
                         "the root of a ctmdesign checkout\n")
        return 2
    # one CPU for the run and every child: the CPUs of a virtual machine
    # can differ in speed, and moving between them adds to the spread
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(HERE))
    import checks

    work = root / OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    try:
        setups = []
        if not trace:
            first = [*WORKLOADS[args.workload][0], "--seed", str(args.seed),
                     "--workers", "1"]
            for p in range(PROBES):
                op = run_op(first, work / f"probe{p}", probe=True)
                if op.setup_s is not None:
                    setups.append(op.setup_s)

        # as many whole rounds as fit the time, judged by the first round
        rounds, walls = [], []
        n_rounds = 1
        while len(rounds) < n_rounds:
            ops, wall = run_round(args.workload, args.seed,
                                  work / f"round{len(rounds)}", trace)
            rounds.append(ops)
            walls.append(wall)
            n_rounds = max(1, round(args.seconds / walls[0]))

        all_ops = [op for ops in rounds for op in ops]
        attempted = len(all_ops)
        failed = sum(op.code != 0 for op in all_ops)
        problems = []
        if failed == 0:
            try:
                problems += checks.check_workload(args.workload, rounds[0],
                                                  args.seed, root)
            except Exception:  # malformed artifacts: report, keep the result line
                problems.append("a check raised:\n" + traceback.format_exc())
            reference = [_artifacts(op.out_dir) for op in rounds[0]]
            for r, ops in enumerate(rounds[1:], start=1):
                if [_artifacts(op.out_dir) for op in ops] != reference:
                    problems.append(f"round {r} artifacts differ from round 0")
        for p in problems:
            print(f"CHECK FAILED: {p}")

        if trace:
            metrics = per_layer(all_ops, len(rounds), walls)
        else:
            setups += [op.setup_s for op in all_ops if op.setup_s is not None]
            n_reps = sum(replicates_of(op) for op in all_ops if op.code == 0)
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "replicates_per_s": (n_reps / sum(walls), "1/s"),
                "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
                "peak_rss_mb": (max(op.stats.get("peak_rss_kb", 0)
                                    for op in all_ops) / 1024.0, "MB"),
            }
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value:14.6g} {unit}")
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
