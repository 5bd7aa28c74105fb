"""Command-line entry points and run artifacts.

Subcommands:

* ``simulate``           replicate a scenario at one design vector and
                         write per-replicate statistics.
* ``calibrate``          write benchmark-calibrated acceptance thresholds.
* ``estimate-levelset``  run the full active-learning loop and persist
                         per-iteration artifacts (dataset, grids, error
                         bounds, fitted hyperparameters).
* ``benchmark-compare``  mean performance under the demand-proportional
                         rule versus the cooperative benchmark for a list
                         of designs.
* ``export-grid``        re-evaluate a persisted posterior on a fresh grid.

All outputs are CSV plus one manifest JSON per run; identical config and
seed reproduce byte-identical outputs on the same platform regardless of
the worker count (replicates are reduced in index order).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, Scenario, load_scenario
from .env import replicate_rng
from .evaluation import calibrate_threshold
from .gpr import GprDataset, Kernel, posterior
from .learning import run_active_learning
from .network import NetworkError
from .solvers import InteractionRule

_WORKER_SCENARIO = None


def _init_worker(raw):
    global _WORKER_SCENARIO
    _WORKER_SCENARIO = Scenario(raw)


def _replicate(scenario, k, seed, index, rule):
    rule_obj = InteractionRule(rule) if rule else None
    return scenario.run_replicate(k, replicate_rng(seed, 0, index), rule=rule_obj)


def _worker_replicate(args):
    return _replicate(_WORKER_SCENARIO, *args)


def replicate_values(scenario, k, reps, seed, rule=None, workers=1):
    """Per-replicate performance statistics, in replicate order."""
    if workers <= 1:
        return np.array([_replicate(scenario, k, seed, i, rule)
                         for i in range(reps)])
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(tuple(k), seed, i, rule) for i in range(reps)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(scenario.raw,)) as pool:
        return np.array(list(pool.map(_worker_replicate, jobs, chunksize=8)))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _manifest(out_dir, config_path, raw, seed, files, t0, extra=None):
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()).hexdigest()
    manifest = {
        "tool": "ctmdesign",
        "version": __version__,
        "config": str(config_path),
        "config_sha256": digest,
        "seed": seed,
        "files": sorted(files),
        "wall_clock_s": round(time.time() - t0, 3),
        "argv": sys.argv[1:],
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _fmt(x):
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    k = _parse_design(args.design, scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    values = replicate_values(scenario, k, args.reps, seed,
                              rule=args.rule, workers=args.workers)
    rep_file = out_dir / "replicates.csv"
    _write_csv(rep_file, ["replicate", "value"],
               [(i, _fmt(v)) for i, v in enumerate(values)])
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    sum_file = out_dir / "summary.csv"
    _write_csv(sum_file, ["n", "mean", "std_error"],
               [(len(values), _fmt(mean), _fmt(se))])
    _manifest(out_dir, args.config, scenario.raw, seed,
              [rep_file.name, sum_file.name], t0,
              extra={"design": list(map(float, k)),
                     "rule": args.rule or scenario.raw.get("run", {}).get("rule")})
    print(f"{scenario.name}: n={len(values)} mean={mean:.4f} se={se:.4f}")
    return 0


def cmd_calibrate(args):
    scenario = load_scenario(args.config)
    benches = scenario.benchmarks()
    if not benches:
        raise ConfigError(f"{args.config}: no benchmarks block to calibrate")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows = []
    for u_label, u in scenario.calibration_utilities():
        for label, bench in sorted(benches.items()):
            gamma = calibrate_threshold(bench, u)
            rows.append((u_label, label, _fmt(bench.e), _fmt(bench.sigma_target),
                         _fmt(bench.beta), _fmt(gamma)))
            print(f"utility={u_label} benchmark={label}: beta={bench.beta:.6g} "
                  f"gamma={gamma:.8g}")
    thr_file = out_dir / "thresholds.csv"
    _write_csv(thr_file, ["utility", "benchmark", "e", "sigma_target",
                          "beta", "gamma"], rows)
    _manifest(out_dir, args.config, scenario.raw, scenario.seed,
              [thr_file.name], t0)
    return 0


def _grid_slice(scenario, space, resolution=None):
    """2D slice grid from the learning.grid block: (points, axis names, shape)."""
    grid_cfg = scenario.grid_block()
    names = scenario.design_names
    axes = grid_cfg.get("axes", names[:2])
    res = resolution or grid_cfg.get("resolution", 200)
    fixed = grid_cfg.get("fixed", {})
    ia, ib = names.index(axes[0]), names.index(axes[1])
    (a_lo, a_hi) = space.bounds[ia]
    (b_lo, b_hi) = space.bounds[ib]
    a = np.linspace(a_lo, a_hi, res)
    b = np.linspace(b_lo, b_hi, res)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    pts = np.zeros((res * res, space.dim))
    for j, name in enumerate(names):
        if name == axes[0]:
            pts[:, j] = aa.ravel()
        elif name == axes[1]:
            pts[:, j] = bb.ravel()
        else:
            lo, hi = space.bounds[j]
            pts[:, j] = float(fixed.get(name, (lo + hi) / 2.0))
    return pts, axes, (res, res)


def _write_grid(path, pts, axes, names, est):
    lower, upper = est.bands()
    m, s = est.posterior.mean_std(pts)
    m = np.atleast_1d(m)
    s = np.atleast_1d(s)
    lo = np.atleast_1d(lower(pts))
    hi = np.atleast_1d(upper(pts))
    ia, ib = names.index(axes[0]), names.index(axes[1])
    rows = [(_fmt(p[ia]), _fmt(p[ib]), _fmt(mi), _fmt(si),
             int(mi >= est.gamma), int(lo_i >= est.gamma), int(hi_i >= est.gamma))
            for p, mi, si, lo_i, hi_i in zip(pts, m, s, lo, hi)]
    _write_csv(path, [axes[0], axes[1], "mean", "std", "member",
                      "inner", "outer"], rows)


def cmd_estimate_levelset(args):
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    space = scenario.design_space()
    config = scenario.loop_config()
    gamma = scenario.threshold()
    utility = scenario.utility()
    names = scenario.design_names

    def simulator(k, rng):
        return float(utility(scenario.run_replicate(k, rng)))

    files = []
    error_rows = []

    def persist(est, state):
        i = est.iteration
        dataset_file = out_dir / "dataset.csv"
        rows = [tuple(_fmt(x) for x in p)
                + (_fmt(v), _fmt(n), cnt, int(d), born)
                for p, v, n, cnt, d, born in zip(
                    state.points, state.values, state.noises, state.counts,
                    state.discarded, state.iteration_born)]
        _write_csv(dataset_file, names + ["mu_hat", "tau_sq", "n",
                                          "discarded", "iteration"], rows)
        kern = est.posterior.kernel
        hp_file = out_dir / "hyperparameters.json"
        with open(hp_file, "w") as fh:
            json.dump({"variant": kern.variant, "sigma_c": kern.sigma_c,
                       "length": kern.length,
                       "mu_bar": est.posterior.dataset.mu_bar,
                       "s_bar": est.posterior.dataset.s_bar,
                       "gamma": gamma, "delta": est.delta}, fh, indent=2)
        if space.dim >= 2:
            pts, axes, _ = _grid_slice(scenario, space)
            grid_file = out_dir / f"grid_{i}.csv"
            _write_grid(grid_file, pts, axes, names, est)
            files.append(grid_file.name)
        error_rows.append((i, _fmt(est.e_hat), len(state.points),
                           int(np.sum(state.discarded))))
        _write_csv(out_dir / "errors.csv",
                   ["iteration", "e_hat", "points", "discarded"], error_rows)
        files.extend([dataset_file.name, hp_file.name, "errors.csv"])
        print(f"iteration {i}: {len(state.points)} points, "
              f"error bound {est.e_hat:.5g}")

    estimates = run_active_learning(config, space, simulator, gamma, seed,
                                    on_iteration=persist)
    _manifest(out_dir, args.config, scenario.raw, seed, set(files), t0,
              extra={"gamma": gamma, "iterations": len(estimates) - 1})
    return 0


def cmd_benchmark_compare(args):
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    designs = [_parse_design(d, scenario) for d in args.designs.split(";") if d]
    if not designs:
        raise ConfigError("benchmark-compare needs at least one design")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    names = scenario.design_names
    rows = []
    for ki, k in enumerate(designs):
        for rule in ("dpf", "cooperative"):
            values = replicate_values(scenario, k, args.reps, seed + ki,
                                      rule=rule, workers=args.workers)
            mean = values.mean()
            se = values.std(ddof=1) / np.sqrt(len(values))
            rows.append(tuple(_fmt(x) for x in k)
                        + (rule, len(values), _fmt(mean), _fmt(se)))
            print(f"k={list(k)} {rule}: mean={mean:.4f} se={se:.4f}")
    table_file = out_dir / "comparison.csv"
    _write_csv(table_file, names + ["rule", "n", "mean", "std_error"], rows)
    _manifest(out_dir, args.config, scenario.raw, seed, [table_file.name], t0)
    return 0


def cmd_export_grid(args):
    scenario = load_scenario(args.config)
    run_dir = Path(args.run_dir)
    with open(run_dir / "hyperparameters.json") as fh:
        hp = json.load(fh)
    names = scenario.design_names
    pts_list, vals, noises, discarded = [], [], [], []
    with open(run_dir / "dataset.csv") as fh:
        for row in csv.DictReader(fh):
            pts_list.append([float(row[n]) for n in names])
            vals.append(float(row["mu_hat"]))
            noises.append(float(row["tau_sq"]))
            discarded.append(bool(int(row["discarded"])))
    keep = ~np.array(discarded)
    data = GprDataset(np.array(pts_list)[keep], np.array(vals)[keep],
                      np.array(noises)[keep],
                      mu_bar=hp["mu_bar"], s_bar=hp["s_bar"])
    post = posterior(data, Kernel(hp["variant"], hp["sigma_c"], hp["length"]))
    from .learning import LevelSetEstimate

    est = LevelSetEstimate(iteration=-1, posterior=post, gamma=hp["gamma"],
                           delta=hp.get("delta", 0.05))
    space = scenario.design_space()
    pts, axes, _ = _grid_slice(scenario, space, resolution=args.resolution)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_grid(out / "grid.csv", pts, axes, names, est)
    print(f"wrote {out / 'grid.csv'}")
    return 0


def _parse_design(text, scenario):
    if text is None:
        raise ConfigError("--design is required for this command")
    try:
        k = np.array([float(x) for x in text.replace(";", ",").split(",") if x])
    except ValueError:
        raise ConfigError(f"cannot parse design vector {text!r}") from None
    scenario.design_params(k)  # validates the length
    return k


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctmdesign",
        description="Stochastic cell transmission simulation and "
                    "acceptable-design estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, design=False, reps=False):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: scenario seed)")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="replicate worker processes")
        if design:
            p.add_argument("--design", help="design vector, comma separated")
        if reps:
            p.add_argument("--reps", type=int, default=500,
                           help="replicates per design")

    p_sim = sub.add_parser("simulate", help="replicate one design")
    common(p_sim, design=True, reps=True)
    p_sim.add_argument("--rule", choices=["dpf", "cpf", "priority",
                                          "cooperative"], default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="benchmark thresholds")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_est = sub.add_parser("estimate-levelset", help="active-learning loop")
    common(p_est)
    p_est.set_defaults(func=cmd_estimate_levelset)

    p_cmp = sub.add_parser("benchmark-compare",
                           help="demand-proportional vs cooperative")
    common(p_cmp, reps=True)
    p_cmp.add_argument("--designs", required=True,
                       help="semicolon-separated design vectors")
    p_cmp.set_defaults(func=cmd_benchmark_compare)

    p_exp = sub.add_parser("export-grid", help="rasterize a saved posterior")
    common(p_exp)
    p_exp.add_argument("--run-dir", required=True,
                       help="directory of an estimate-levelset run")
    p_exp.add_argument("--resolution", type=int, default=None)
    p_exp.set_defaults(func=cmd_export_grid)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ArithmeticError, NetworkError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
