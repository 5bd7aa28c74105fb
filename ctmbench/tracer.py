"""Spans and counters around ctmdesign's functions, installed from outside.

``install`` replaces functions and methods of the imported ctmdesign
modules with wrappers that time each call.  A span keeps its call
count, total time and self time (total minus the time of the spans it
encloses); counters record work done at the same boundaries.  Nothing
inside the package changes, and no wrapper touches a random stream,
so a traced command writes the same artifacts as an untraced one.

Names consumed by another module through ``from .x import y`` are
patched in the consuming module, where the call looks them up.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span table and counters of one process."""

    def __init__(self):
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.counters = {}
        self._stack = []     # [name, child_s] per open span

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def current(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None):
        """Timed version of ``fn``; ``before(args, kwargs)`` and
        ``after(result, args, kwargs)`` run outside the timed interval."""
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the enclosing span is charged from t_in to the end, so the
            # wrapper's own work and the hooks count as neither's self time
            t_in = perf_counter()
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(result, args, kwargs)
            if stack:
                stack[-1][1] += perf_counter() - t_in
            return result

        return wrapper

    def report(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def install(tracer):
    """Wrap the layer boundaries of every ctmdesign module."""
    from ctmdesign import cells, cli, config, env, evaluation, gpr, learning, solvers

    def patch(owner, attr, name, before=None, after=None):
        setattr(owner, attr,
                tracer.wrap(name, getattr(owner, attr), before, after))

    # stepper, per replicate-step
    patch(cells.CellTable, "evaluate", "cells.evaluate")
    patch(solvers.SimulationEngine, "outflows", "solvers.outflows")
    patch(solvers.SimulationEngine, "inflows", "solvers.inflows")
    patch(solvers.SimulationEngine, "run", "solvers.run",
          before=lambda a, k: tracer.count("solvers.steps",
                                           int(_arg(a, k, 2, "n_steps"))))
    patch(solvers, "clamp_densities", "network.clamp",
          before=lambda a, k: tracer.count(
              "network.density_clamps", int(np.count_nonzero(a[0] < 0))))

    def truncations(result, a, k):
        q_aux, q_net = result
        tracer.count("env.truncations", int(np.count_nonzero(q_net != q_aux)))

    for cls in (env.ArCopulaEnvironment, env.GaussianPairsEnvironment):
        patch(cls, "net_flows", "env.net_flows", after=truncations)
    for cls in (evaluation.AvgNetworkFlow, evaluation.Throughput,
                evaluation.AvgVelocity):
        patch(cls, "__call__", "evaluation.observe")

    # per replicate and set-up
    patch(solvers.SimulationEngine, "signal_table", "signals.table")
    patch(solvers.SimulationEngine, "__init__", "config.engine_build")
    patch(config.Scenario, "run_replicate", "config.run_replicate",
          before=lambda a, k: tracer.count("evaluation.replicates"))
    patch(cli, "load_scenario", "config.load")

    # sequential Monte Carlo: why each design point stopped
    def stop_reason(est, a, k):
        tau = float(_arg(a, k, 1, "tau_target"))
        met = est.tau_sq <= tau * tau
        tracer.count("evaluation.target_stops" if met else "evaluation.cap_stops")

    patch(learning, "sequential_mc", "evaluation.sequential_mc", after=stop_reason)

    # Gaussian process
    patch(learning, "fit_hyperparameters", "gpr.fit")
    patch(learning, "posterior", "gpr.posterior")
    patch(gpr, "log_marginal_likelihood", "gpr.lml")
    patch(gpr, "_factor", "gpr.factor")

    def query_points(a, k):
        tracer.count("gpr.query_points", len(np.atleast_2d(a[1])))

    for meth in ("mean", "std", "mean_std"):
        patch(gpr.GprPosterior, meth, "gpr.query", before=query_points)

    # learning loop
    def candidates(a, k):
        if tracer.current() == "learning.rejection":
            tracer.count("learning.candidates", int(_arg(a, k, 2, "n")))

    patch(learning.DesignSpace, "uniform", "learning.uniform", before=candidates)
    patch(learning, "rejection_sample", "learning.rejection",
          after=lambda r, a, k: tracer.count("learning.points_added", len(r)))
    patch(learning, "nikodym_bound_mc", "learning.nikodym")

    # artifacts: the per-iteration callback and the writers it calls
    loop = cli.run_active_learning

    @functools.wraps(loop)
    def traced_loop(*args, on_iteration=None, **kwargs):
        if on_iteration is not None:
            on_iteration = tracer.wrap("cli.persist", on_iteration)
        return loop(*args, on_iteration=on_iteration, **kwargs)

    cli.run_active_learning = tracer.wrap("learning.loop", traced_loop)
    patch(cli, "_write_csv", "cli.write_csv")
    patch(cli, "_write_grid", "cli.write_grid")
    patch(cli, "_manifest", "cli.manifest")
