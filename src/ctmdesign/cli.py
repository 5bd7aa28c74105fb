"""Command-line entry points and run artifacts.

Subcommands:

* ``simulate``           replicate a scenario at design vectors under
                         interaction rules; design i runs on seed + i, so
                         the rules at one design share its generators.
* ``calibrate``          write benchmark-calibrated acceptance thresholds.
* ``estimate-levelset``  run the full active-learning loop and persist
                         per-iteration artifacts: the dataset and fitted
                         hyperparameters as each iteration ends, the
                         grids and ``errors.csv`` once after the loop in
                         every mode (so a run that fails inside the loop
                         leaves no grid and no ``errors.csv``).
* ``export-grid``        rebuild a run's last posterior from its
                         ``dataset.csv`` and ``hyperparameters.json``,
                         replaying the loop's factor chain (one fit per
                         iteration that added rows), and evaluate it on a
                         fresh grid; at the run's resolution it equals the
                         last grid byte for byte.

All outputs are CSV plus one manifest JSON per run; identical config and
seed reproduce byte-identical outputs on the same platform for any worker
count and batch size (replicates are reduced in index order).
``--workers`` splits the replicates of each ``simulate`` case over one
process pool, opened once per command; ``estimate-levelset`` runs in one
process and steps the first n_min replicates of all of an iteration's
design points as one list, then continues each point in chunks.  Its
manifest records the replicates used (the sum of n over the dataset),
the replicates drawn (also those thrown away past a stop), how many
points stopped at their noise target or at the n_max cap, and how many
posterior variances were solved: at the Sobol points of each fit's error
bound, and for the candidates of each rejection sampling; and the wall
seconds of each phase of the run (``phase_seconds``).

The GP and the learning loop are imported by the commands that use them,
so ``simulate`` and ``calibrate`` load neither.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .config import (HYPERPARAMETERS_SCHEMA, ConfigError, Scenario,
                     _rejected_as_config_error, load_json, load_scenario)
from .env import replicate_rng
from .evaluation import calibrate_threshold
from .network import NetworkError
from .normal import ndtri
from .solvers import InteractionRule

_WORKER_SCENARIO = None


def _init_worker(raw):
    global _WORKER_SCENARIO
    _WORKER_SCENARIO = Scenario(raw)


def _replicates(scenario, k, seed, indices, rule):
    rule_obj = InteractionRule(rule) if rule else None
    return scenario.run_replicate(
        k, [replicate_rng(seed, 0, i) for i in indices], rule=rule_obj)


def _worker_replicates(args):
    return _replicates(_WORKER_SCENARIO, *args)


def replicate_values(scenario, cases, reps, workers=1):
    """Per-replicate performance statistics of each case (k, seed, rule):
    one array per case, in case order, each in replicate order.

    With ``workers`` > 1 one process pool serves every case: each case's
    replicate indices are split into one run of consecutive indices per
    worker (``Scenario.run_replicate`` steps each run in batches).  Every
    value is the same for any worker count and batch size.
    """
    if workers <= 1:
        for k, seed, rule in cases:
            yield np.array(_replicates(scenario, k, seed, range(reps), rule))
        return
    from concurrent.futures import ProcessPoolExecutor

    size = -(-reps // workers)
    spans = [range(i, min(i + size, reps)) for i in range(0, reps, size)]
    jobs = [(tuple(k), seed, span, rule) for k, seed, rule in cases for span in spans]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)), initializer=_init_worker,
                             initargs=(scenario.raw,)) as pool:
        runs = pool.map(_worker_replicates, jobs)
        for _ in cases:
            yield np.array([v for _ in spans for v in next(runs)])


def run_active_learning(*args, **kwargs):
    """``learning.run_active_learning``, the loop imported at its first call."""
    from .learning import run_active_learning

    return run_active_learning(*args, **kwargs)


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


def _summary(values):
    """Mean and standard error of replicate values (error 0 for one value)."""
    n = len(values)
    se = values.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return values.mean(), se


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    names = scenario.design_names
    designs = _parse_designs(args.design, names)
    if args.rule and scenario.rule is None:
        raise ConfigError(f"--rule: {args.config} is an analytic scenario, which has "
                          "no interaction rule")
    rules = args.rule or [getattr(scenario.rule, "variant", "")]
    t0 = time.time()
    replicates, summary = [], []
    cases = [(k, seed + ki, rule) for ki, k in enumerate(designs) for rule in rules]
    for (k, _, rule), values in zip(cases, replicate_values(scenario, cases, args.reps,
                                                            args.workers)):
        design = tuple(_fmt(x) for x in k)
        replicates += [(*design, rule, i, _fmt(v)) for i, v in enumerate(values)]
        mean, se = _summary(values)
        summary.append((*design, rule, len(values), _fmt(mean), _fmt(se)))
        case = f"k={list(map(float, k))}" + (f" {rule}" if rule else "")
        print(f"{case}: n={len(values)} mean={mean:.4f} se={se:.4f}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rep_file = out_dir / "replicates.csv"
    _write_csv(rep_file, names + ["rule", "replicate", "value"], replicates)
    sum_file = out_dir / "summary.csv"
    _write_csv(sum_file, names + ["rule", "n", "mean", "std_error"], summary)
    _manifest(out_dir, args.config, scenario.raw, seed,
              [rep_file.name, sum_file.name], t0,
              extra={"designs": [list(map(float, k)) for k in designs],
                     "rules": rules})
    return 0


def cmd_calibrate(args):
    scenario = load_scenario(args.config)
    benches = scenario.benchmarks()
    if not benches:
        raise ConfigError(f"{args.config}: no benchmarks block to calibrate")
    t0 = time.time()
    rows = []
    for u_label, u in scenario.calibration_utilities():
        for label, bench in sorted(benches.items()):
            gamma = calibrate_threshold(bench, u)
            rows.append((u_label, label, _fmt(bench.e), _fmt(bench.sigma_target),
                         _fmt(bench.beta), _fmt(gamma)))
            print(f"utility={u_label} benchmark={label}: beta={bench.beta:.6g} "
                  f"gamma={gamma:.8g}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    thr_file = out_dir / "thresholds.csv"
    _write_csv(thr_file, ["utility", "benchmark", "e", "sigma_target",
                          "beta", "gamma"], rows)
    _manifest(out_dir, args.config, scenario.raw, scenario.seed,
              [thr_file.name], t0)
    return 0


def _grid_slice(scenario, space, resolution=None):
    """2D slice grid of the scenario's learning.grid settings.

    Returns (points, axis names, row prefixes), a prefix being the row's
    two axis coordinates formatted as the grid CSV has them.
    """
    names = scenario.design_names
    axes, fixed = scenario.grid_axes, scenario.grid_fixed
    res = resolution or scenario.grid_resolution
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
    # row (i, j) is at (a[i], b[j]): each axis's values are formatted once
    b_text = list(map("{:.12g},".format, b.tolist()))
    prefixes = [x + y for x in map("{:.12g},".format, a.tolist()) for y in b_text]
    return pts, axes, prefixes


#: one grid CSV row from its prefix, mean, std and flag suffix, formatted as
#: ``_fmt`` and ``csv`` would write it
_GRID_ROW = "%s%.12g,%.12g%s"
#: the row ends "member,inner,outer", indexed by 4 member + 2 inner + outer
_GRID_FLAGS = tuple(f",{i >> 2},{i >> 1 & 1},{i & 1}\r\n" for i in range(8))


def _write_grid(paths, grid, posts, gamma, delta):
    """The grid CSV ``paths[j]`` of the posterior ``posts[j]`` on a
    ``_grid_slice`` grid, for every j in one pass over the grid's blocks:
    the posteriors are nested (``gpr.nested_query``), and the rows of a
    posterior listed more than once are formatted once."""
    from .gpr import nested_query
    from .learning import band

    pts, axes, prefixes = grid
    distinct = list({id(post): post for post in posts}.values())
    z = ndtri(1.0 - delta / 2.0)
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path in paths]
        for fh in files:
            csv.writer(fh).writerow([axes[0], axes[1], "mean", "std", "member",
                                     "inner", "outer"])
        for block, cols in nested_query(distinct, pts):
            means = [cols.mean(post) for post in distinct]  # before the solves
            fields = [None] * (4 * len(means[0]))
            fields[0::4] = prefixes[block]
            for post, m in zip(distinct, means):
                s = cols.std(post)
                lower, upper = band(m, s, z)
                flags = 4 * (m >= gamma) + 2 * (lower >= gamma) + (upper >= gamma)
                fields[1::4], fields[2::4] = m.tolist(), s.tolist()
                fields[3::4] = map(_GRID_FLAGS.__getitem__, flags.tolist())
                rows = (_GRID_ROW * len(m)) % tuple(fields)
                for fh, owner in zip(files, posts):
                    if owner is post:
                        fh.write(rows)


def cmd_estimate_levelset(args):
    from .learning import timed

    scenario = load_scenario(args.config)
    seed = args.seed if args.seed is not None else scenario.seed
    space = scenario.design_space()
    config = scenario.loop_config()
    gamma = scenario.threshold()
    utility = scenario.utility()
    names = scenario.design_names
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    def simulator(ks, rngs):
        return [float(utility(q)) for q in scenario.run_replicate(ks, rngs)]

    seconds = {"grid_pass": 0.0, "persist": 0.0}
    loop_state = None

    def persist(est, state):
        """As each iteration ends: the dataset and the hyperparameters."""
        nonlocal loop_state
        loop_state = state
        with timed(seconds, "persist"):
            # full precision, so a posterior rebuilt from the file (export-grid)
            # conditions on the loop's data
            rows = [tuple(repr(float(x)) for x in (*p, e.mu_hat, e.tau_sq))
                    + (e.n, int(e.discarded), born)
                    for p, e, born in zip(state.points, state.estimates, state.born)]
            _write_csv(out_dir / "dataset.csv", names + ["mu_hat", "tau_sq", "n",
                                                         "discarded", "iteration"], rows)
            kern = est.posterior.kernel
            with open(out_dir / "hyperparameters.json", "w") as fh:
                json.dump({"variant": kern.variant, "sigma_c": kern.sigma_c,
                           "length": kern.length,
                           "mu_bar": est.posterior.dataset.mu_bar,
                           "s_bar": est.posterior.dataset.s_bar,
                           "gamma": gamma, "delta": est.delta}, fh, indent=2)

    estimates = run_active_learning(config, space, simulator, gamma, seed,
                                    on_iteration=persist)
    files = {"dataset.csv", "hyperparameters.json", "errors.csv"}
    if space.dim >= 2:  # one grid per iteration, all in one pass
        grid_files = [out_dir / f"grid_{est.iteration}.csv" for est in estimates]
        with timed(seconds, "grid_pass"):
            _write_grid(grid_files, _grid_slice(scenario, space),
                        [est.posterior for est in estimates], gamma, config.delta)
        files.update(path.name for path in grid_files)
    with timed(seconds, "persist"):
        # the points held as each iteration ended
        held = [[e for e, born in zip(loop_state.estimates, loop_state.born)
                 if born <= est.iteration] for est in estimates]
        _write_csv(out_dir / "errors.csv", ["iteration", "e_hat", "points", "discarded"],
                   [(est.iteration, _fmt(est.e_hat), len(points),
                     sum(e.discarded for e in points))
                    for est, points in zip(estimates, held)])
        for est, points in zip(estimates, held):
            print(f"iteration {est.iteration}: {len(points)} points, "
                  f"error bound {est.e_hat:.5g}")
    _manifest(out_dir, args.config, scenario.raw, seed, files, t0,
              extra={"gamma": gamma, "iterations": len(estimates) - 1,
                     **loop_state.replicate_counts(),
                     "nikodym_mean_points": loop_state.mean_points,
                     "nikodym_variance_points": loop_state.variance_points,
                     "rejection_std_candidates": loop_state.std_candidates,
                     "phase_seconds": {key: round(value, 6) for key, value in
                                       {**loop_state.seconds, **seconds}.items()}})
    return 0


def cmd_export_grid(args):
    from .gpr import GprDataset, Kernel, posterior

    scenario = load_scenario(args.config)
    space = scenario.design_space()
    if space.dim < 2:
        raise ConfigError(f"{args.config}: export-grid needs a design space of "
                          f"at least two dimensions, not {space.dim}")
    run_dir = Path(args.run_dir)
    hp = load_json(run_dir / "hyperparameters.json", HYPERPARAMETERS_SCHEMA, fill=True)
    data_file = run_dir / "dataset.csv"
    try:
        with open(data_file) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"{exc.filename}: {exc.strerror}") from None
    names = scenario.design_names
    with _rejected_as_config_error(data_file):
        born = np.array([int(row["iteration"]) for row in rows])
        if np.any(np.diff(born) < 0):
            raise ValueError("iteration must not decrease from row to row")
        keep = np.array([not int(row["discarded"]) for row in rows], dtype=bool)
        kept = [row for row, k in zip(rows, keep) if k]
        if not kept:
            raise ValueError("no row with discarded 0, so no data to condition on")
        columns = {key: np.array([float(row[key]) for row in kept])
                   for key in [*names, "mu_hat", "tau_sq"]}
        for key, column in columns.items():
            if not np.isfinite(column).all():
                raise ValueError(f"{key} must be finite, not "
                                 f"{column[~np.isfinite(column)][0]}")
        points = np.column_stack([columns[n] for n in names])
        # the loop's fits: one per iteration that added rows, on the kept rows so far
        fits = [GprDataset(points[:n], columns["mu_hat"][:n], columns["tau_sq"][:n],
                           mu_bar=hp["mu_bar"], s_bar=hp["s_bar"])
                for n in (int(np.count_nonzero(born[keep] <= i)) for i in np.unique(born))]
    kern = Kernel(hp["variant"], hp["sigma_c"], hp["length"])
    post = None
    for data in fits:  # one factor chain, as the loop's
        post = posterior(data, kern, post)
    grid = _grid_slice(scenario, space, resolution=args.resolution)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_grid([out / "grid.csv"], grid, [post], hp["gamma"], hp["delta"])
    print(f"wrote {out / 'grid.csv'}")
    return 0


def _parse_designs(text, names):
    """The design vectors of ``--design``: ``;`` between vectors and ``,``
    between entries, one finite number per design parameter of ``names``."""
    designs = []
    for vector in text.split(";"):
        try:
            k = np.array([float(x) for x in vector.split(",")])
        except ValueError:
            k = None
        if k is None or not np.isfinite(k).all() or len(k) != len(names):
            raise ConfigError(f"--design: design vector {vector!r} is not {len(names)} "
                              f"finite numbers, one per design parameter of {names}")
        designs.append(k)
    return designs


def _rules(text):
    """argparse type of ``--rule``: interaction rules, ``,`` between them."""
    rules = text.split(",")
    if not set(rules) <= set(InteractionRule.VARIANTS):
        raise argparse.ArgumentTypeError(
            f"{text!r} names a rule that is not one of {InteractionRule.VARIANTS}")
    return rules


def _int_at_least(low):
    """argparse type of an integer >= ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctmdesign",
        description="Stochastic cell transmission simulation and "
                    "acceptable-design estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=None):
        """--config and --out-dir; for a command that draws replicates,
        ``workers`` is the help of --workers, which comes with --seed."""
        p.add_argument("--config", required=True, help="scenario JSON file")
        if workers:
            p.add_argument("--seed", type=_int_at_least(0), default=None,
                           help="master seed (default: scenario seed)")
        p.add_argument("--out-dir", default="out", help="output directory")
        if workers:
            p.add_argument("--workers", type=_int_at_least(1), default=1, help=workers)

    p_sim = sub.add_parser("simulate", help="replicate designs under rules")
    common(p_sim, workers="processes that split the replicates of each "
                          "(design, rule) case")
    p_sim.add_argument("--design", required=True,
                       help="design vectors, ';' between vectors and ',' between "
                            "entries; design i runs on seed + i")
    p_sim.add_argument("--rule", type=_rules, default=None,
                       help="interaction rules, ',' between them "
                            f"({', '.join(InteractionRule.VARIANTS)}; default: "
                            "the scenario's)")
    p_sim.add_argument("--reps", type=_int_at_least(1), default=500,
                       help="replicates per (design, rule) case")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="benchmark thresholds")
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_est = sub.add_parser("estimate-levelset", help="active-learning loop")
    common(p_est, workers="no effect yet: estimate-levelset runs in one process")
    p_est.set_defaults(func=cmd_estimate_levelset)

    p_exp = sub.add_parser("export-grid", help="rasterize a saved posterior")
    common(p_exp)
    p_exp.add_argument("--run-dir", required=True,
                       help="directory of an estimate-levelset run")
    p_exp.add_argument("--resolution", type=_int_at_least(1), default=None)
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
