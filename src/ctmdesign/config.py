"""Scenario configuration: schema, loading, and the replicate runner.

A scenario file is JSON with a versioned schema.  It either describes a
traffic network (nodes, cells, signals, sources/sinks, run horizon,
performance measure) or an analytic test surface, plus the design-space
bounds and the estimation budgets.  Scalar fields that vary with the
design vector hold ``{"design": "<name>"}`` references resolved at
simulation time.

Design parameters listed under ``design.integerized`` are rounded to an
adjacent integer per replicate, with probabilities matching the real
value in expectation (signal programs must be whole time steps).  The
rounding consumes replicate randomness in declared parameter order, so
trajectories are reproducible from (seed, replicate index) alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager

import numpy as np

from .cells import CellSpec
from .env import (ArCopulaEnvironment, ArSourceSink, FrankCopula,
                  GaussianPairsEnvironment, GaussianSourceSink)
from .evaluation import (AvgNetworkFlow, AvgVelocity, BenchmarkSpec, Throughput,
                         Utility, calibrate_threshold)
from .gpr import KERNEL_VARIANTS
from .learning import DesignSpace, LoopConfig
from .network import TrafficNetwork, TurningFractions
from .signals import SignalSchedule
from .solvers import InteractionRule, SimulationEngine

__all__ = ["ConfigError", "Scenario", "load_scenario", "SCENARIO_SCHEMA"]


#: most replicates stepped together as one (B, n_routes) batch
_MAX_BATCH = 64

#: smallest green and shift of a signal program; a design-referenced one
#: stands at this value in the default schedule
_SIGNAL_FLOOR = {"green": 1, "shift": 0}


class ConfigError(ValueError):
    """Scenario file rejected, with a JSON-path or line-precise message."""


_DESIGN_REF = {
    "type": "object",
    "properties": {"design": {"type": "string"}},
    "required": ["design"],
    "additionalProperties": False,
}
_NUMBER_OR_REF = {"oneOf": [{"type": "number"}, _DESIGN_REF]}
_SIGNAL = {
    "type": "object",
    "required": ["ccw", "green"],
    "properties": {
        "ccw": {"type": "array", "items": {"type": "integer"},
                "minItems": 4, "maxItems": 4},
        "green": {"oneOf": [{"type": "integer", "minimum": 1}, _DESIGN_REF]},
        "shift": {"oneOf": [{"type": "integer", "minimum": 0}, _DESIGN_REF]},
        "t_safe": {"type": "integer"},
        "a_real": {"type": "number", "exclusiveMinimum": 0},
        "v_real_kmh": {"type": "number", "exclusiveMinimum": 0},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "name"],
    "properties": {
        "version": {"const": 1},
        "name": {"type": "string"},
        "seed": {"type": "integer"},
        "design": {
            "type": "object",
            "required": ["names", "bounds"],
            "properties": {
                "names": {"type": "array", "items": {"type": "string"}},
                "bounds": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
                "integerized": {"type": "array", "items": {"type": "string"}},
            },
        },
        "simulator": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"const": "analytic"},
                "surface": {"enum": ["sin1d", "sincos2d"]},
                "noise": {"type": "number", "minimum": 0},
            },
        },
        "network": {
            "type": "object",
            "required": ["nodes", "edges", "groups", "cells", "lengths", "turning"],
            "properties": {
                "nodes": {"type": "array", "items": {"type": "integer"}},
                "edges": {"type": "array",
                          "items": {"type": "array", "items": {"type": "integer"},
                                    "minItems": 2, "maxItems": 2}},
                "undirected": {"type": "boolean"},
                "allow_uturn": {"type": "array", "items": {"type": "integer"}},
                "groups": {"type": "object",
                           "additionalProperties": {"type": "array",
                                                    "items": {"type": "integer"}}},
                "lengths": {"type": "object",
                            "additionalProperties": {"type": "number"}},
                "cells": {"type": "object"},
                "turning": {"enum": ["uniform_no_uturn"]},
                "signals": {"type": "object",
                            "propertyNames": {"pattern": "^-?(0|[1-9][0-9]*)$"},
                            "additionalProperties": _SIGNAL},
                "roundabout_ccw": {"type": "object"},
            },
        },
        "environment": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["none", "ar_copula", "gaussian_pairs"]},
                "copula_r": _NUMBER_OR_REF,
                "rho_cap_fraction": {"type": "number",
                                     "exclusiveMinimum": 0, "maximum": 1},
                "sources": {"type": "array"},
                "constants": {"type": "array"},
            },
        },
        "run": {
            "type": "object",
            "required": ["steps"],
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "t_real": {"type": "number", "exclusiveMinimum": 0},
                "rule": {"enum": ["dpf", "cpf", "priority", "cooperative"]},
                "initial_density": {"type": "object"},
            },
        },
        "evaluation": {"type": "object"},
        "learning": {"type": "object"},
    },
}


def _json_error(path, exc):
    return ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def load_scenario(path):
    """Parse and validate a scenario file."""
    from jsonschema.exceptions import best_match
    from jsonschema.validators import validator_for

    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _json_error(path, exc) from None
    # jsonschema.validate without its check of the (fixed) schema against
    # the metaschema, which took most of the load time; a unit test checks it
    exc = best_match(validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA).iter_errors(raw))
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {loc}: {exc.message}")
    return Scenario(raw, origin=str(path))


def _resolve(value, params, context):
    """Literal numbers pass through; design references pull from params."""
    if isinstance(value, dict):
        name = value["design"]
        if name not in params:
            raise ConfigError(f"{context}: unknown design parameter {name!r}")
        return params[name]
    return value


@contextmanager
def _rejected_as_config_error(context):
    """Re-raise a constructor's ValueError as a ConfigError naming ``context``."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{context}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


class Scenario:
    """A validated scenario: builds the engine once, then runs replicates."""

    def __init__(self, raw, origin="<dict>"):
        self.raw = raw
        self.origin = origin
        self.name = raw["name"]
        self.seed = raw.get("seed", 0)
        self._node_index = None
        if "network" in raw:
            self._build_network()
        self._check_grid()

    # -- design space --------------------------------------------------

    @property
    def design_names(self):
        return list(self.raw.get("design", {}).get("names", []))

    def design_space(self):
        bounds = self.raw.get("design", {}).get("bounds")
        if bounds is None:
            raise ConfigError(f"{self.origin}: scenario has no design block")
        with _rejected_as_config_error(f"{self.origin}: design"):
            return DesignSpace(tuple((float(lo), float(hi)) for lo, hi in bounds))

    def design_params(self, k):
        names = self.design_names
        k = np.asarray(k, dtype=float).ravel()
        if len(k) != len(names):
            raise ConfigError(
                f"design vector has {len(k)} entries, expected {len(names)}: {names}")
        return dict(zip(names, k))

    # -- network construction -------------------------------------------

    def _node_id(self, node):
        try:
            return self._node_index[node]
        except KeyError:
            raise ConfigError(
                f"{self.origin}: unknown node {node} referenced") from None

    def _route(self, triple):
        return tuple(self._node_id(n) for n in triple)

    def _build_network(self):
        net_cfg = self.raw["network"]
        nodes = net_cfg["nodes"]
        if len(set(nodes)) != len(nodes):
            raise ConfigError(f"{self.origin}: duplicate node ids")
        self._node_index = {n: i for i, n in enumerate(sorted(nodes))}
        self.node_labels = sorted(nodes)

        groups = net_cfg["groups"]
        self._group_of = {}
        for gname, members in groups.items():
            for n in members:
                if n not in self._node_index:
                    raise ConfigError(f"{self.origin}: group {gname} names "
                                      f"unknown node {n}")
                if n in self._group_of:
                    raise ConfigError(f"{self.origin}: node {n} in two groups")
                self._group_of[n] = gname
        missing = set(nodes) - set(self._group_of)
        if missing:
            raise ConfigError(f"{self.origin}: nodes without a group: {sorted(missing)}")

        edges = []
        for u, v in net_cfg["edges"]:
            ui, vi = self._node_id(u), self._node_id(v)
            edges.append((ui, vi))
            if net_cfg.get("undirected", True):
                edges.append((vi, ui))
        lengths_cfg = net_cfg["lengths"]
        lengths = {}
        for n in nodes:
            g = self._group_of[n]
            if g not in lengths_cfg:
                raise ConfigError(f"{self.origin}: no length for group {g}")
            lengths[self._node_id(n)] = float(lengths_cfg[g])
        uturn = {self._node_id(n) for n in net_cfg.get("allow_uturn", [])}
        with _rejected_as_config_error(f"{self.origin}: network"):
            self.network = TrafficNetwork(len(nodes), edges, lengths,
                                          allow_uturn=uturn)

        cells_cfg = net_cfg["cells"]
        signals_cfg = net_cfg.get("signals", {})
        ccw_cfg = {**net_cfg.get("roundabout_ccw", {}),
                   **{k: v["ccw"] for k, v in signals_cfg.items()}}
        self.node_cells = {}
        for n in nodes:
            g = self._group_of[n]
            if g not in cells_cfg:
                raise ConfigError(f"{self.origin}: no cell spec for group {g}")
            params = dict(cells_cfg[g])
            kind = params.pop("kind")
            ccw = ccw_cfg.get(str(n))
            if ccw is not None:
                params["ccw"] = tuple(self._node_id(x) for x in ccw)
            try:
                cell = CellSpec(kind=kind, **params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{self.origin}: cell of node {n} ({g}): {exc}") from None
            # a free-flow outflow a * rho must not exceed the l_v * rho on the node
            l_v = lengths[self._node_id(n)]
            if l_v < cell.a:
                raise ConfigError(f"{self.origin}: node {n} ({g}): length {l_v:g} "
                                  f"is below its free-flow factor a = {cell.a:g}")
            self.node_cells[self._node_id(n)] = cell

        if net_cfg["turning"] != "uniform_no_uturn":
            raise ConfigError(f"{self.origin}: unsupported turning rule")
        self.turning = TurningFractions.uniform_no_uturn(self.network)

        self._build_signals(signals_cfg)
        self.engine = SimulationEngine(self.network, self.node_cells,
                                       self.turning, self.signals)

    def _build_signals(self, signals_cfg):
        """One default schedule per signalized node; a design-referenced
        green or shift stands at its floor until ``_signal_programs``."""
        integerized = (set(self.raw.get("design", {}).get("integerized", []))
                       & set(self.design_names))
        t_real = float(self.raw.get("run", {}).get("t_real", 1.0))
        self.signals, self._signal_refs = {}, []
        for node_str, sig in signals_cfg.items():
            v = self._node_id(int(node_str))
            where = f"{self.origin}: signal of node {node_str}"
            if self.node_cells[v].kind != "signalized_intersection":
                raise ConfigError(f"{where}: node is a {self.node_cells[v].kind}, "
                                  "not a signalized_intersection")
            fields = dict(_SIGNAL_FLOOR)
            for key in fields:
                value = sig.get(key, fields[key])
                if not isinstance(value, dict):
                    fields[key] = int(value)
                elif value["design"] in integerized:
                    self._signal_refs.append((v, key, value["design"]))
                else:
                    raise ConfigError(
                        f"{where}: {key} references {value['design']!r}, which "
                        "is not a design parameter listed under design.integerized")
            self.signals[v] = SignalSchedule(
                ccw=tuple(self._node_id(x) for x in sig["ccw"]), **fields,
                t_real=t_real, a_real=float(sig.get("a_real", 1.5)),
                v_real=float(sig.get("v_real_kmh", 50.0)) / 3.6,
                t_safe=int(sig.get("t_safe", 2)))

    # -- per-replicate assembly ------------------------------------------

    def initial_densities(self):
        init_cfg = self.raw.get("run", {}).get("initial_density", {})
        mode = init_cfg.get("mode", "per_route")
        rho0 = np.zeros(self.network.n_routes)
        if mode == "per_route":
            for i, r in enumerate(self.network.routes):
                g = self._group_of[self.node_labels[r.via]]
                rho0[i] = float(init_cfg["values"][g])
        elif mode == "max_density_fraction":
            frac = float(init_cfg["fraction"])
            for v in range(self.network.n_nodes):
                idx = self.network.routes_through(v)
                if len(idx) == 0:
                    continue
                rho_max = self.node_cells[v].rho_max
                rho0[idx] = rho_max * frac / len(idx)
        else:
            raise ConfigError(f"{self.origin}: unknown initial-density mode {mode!r}")
        return rho0

    def interaction_rule(self):
        return InteractionRule(self.raw.get("run", {}).get("rule", "dpf"))

    def _integerize_params(self, params, rng):
        """Round flagged design parameters to adjacent integers, in order."""
        out = dict(params)
        for name in self.raw.get("design", {}).get("integerized", []):
            if name not in out:
                continue
            x = out[name]
            frac = x - math.floor(x)
            out[name] = math.floor(x) + (1.0 if rng.random() < frac else 0.0)
        return out

    def _signal_programs(self, params):
        """Node -> SignalSchedule of one replicate, design values in place."""
        programs = dict(self.signals)
        for v, key, name in self._signal_refs:
            value = max(_SIGNAL_FLOOR[key], int(params[name]))
            programs[v] = dataclasses.replace(programs[v], **{key: value})
        return programs

    def _node_caps(self, cap_fraction):
        return {v: self.node_cells[v].rho_max * cap_fraction
                for v in range(self.network.n_nodes)}

    def _environment(self, params, rng, steps):
        env_cfg = self.raw.get("environment", {"kind": "none"})
        kind = env_cfg["kind"]
        if kind == "none":
            return None
        caps = self._node_caps(float(env_cfg.get("rho_cap_fraction", 1.0)))
        if kind == "ar_copula":
            sources = [
                ArSourceSink(route=self._route(s["route"]),
                             sigma=float(_resolve(s["sigma"], params, "source sigma")))
                for s in env_cfg["sources"]]
            copula = FrankCopula(float(_resolve(env_cfg["copula_r"], params,
                                                "copula r")))
            return ArCopulaEnvironment(self.network, sources, copula, caps, rng,
                                       steps)
        if kind == "gaussian_pairs":
            sources = []
            for s in env_cfg["sources"]:
                sources.append(GaussianSourceSink(
                    route=self._route(s["route"]),
                    xi=float(_resolve(s["xi"], params, "source xi")),
                    psi=float(_resolve(s["psi"], params, "source psi")),
                    pair_route=(self._route(s["pair_route"])
                                if "pair_route" in s else None),
                    pair_sign=float(s.get("pair_sign", -1.0))))
            constants = []
            for entry in env_cfg.get("constants", []):
                value = _resolve(entry["value"], params, "constant flow")
                scale = float(entry.get("scale", 1.0))
                constants.append((self._route(entry["route"]), scale * float(value)))
            return GaussianPairsEnvironment(self.network, sources, constants,
                                            caps, rng, steps)
        raise ConfigError(f"{self.origin}: unknown environment kind {kind!r}")

    def _measure(self):
        eval_cfg = self.raw.get("evaluation", {})
        m_cfg = eval_cfg.get("measure", {"kind": "avg_network_flow"})
        kind = m_cfg["kind"]
        if kind == "avg_network_flow":
            return AvgNetworkFlow
        if kind == "throughput":
            env_cfg = self.raw.get("environment", {})
            routes = [self.network.index_of(*self._route(s["route"]))
                      for s in env_cfg.get("sources", [])]
            routes += [self.network.index_of(*self._route(s["pair_route"]))
                       for s in env_cfg.get("sources", []) if "pair_route" in s]
            routes += [self.network.index_of(*self._route(e["route"]))
                       for e in env_cfg.get("constants", [])]
            return lambda: Throughput(routes)
        if kind == "avg_velocity":
            idx = [self.network.index_of(*self._route(r)) for r in m_cfg["routes"]]
            free = [self.node_cells[self.network.routes[i].via].a for i in idx]
            return lambda: AvgVelocity(idx, free)
        raise ConfigError(f"{self.origin}: unknown measure {kind!r}")

    # -- running ----------------------------------------------------------

    def run_replicate(self, k, rng, extra_observers=(), rule=None):
        """Trajectories at design k; returns their performance statistics.

        ``rng`` is one Generator (one replicate, a float is returned) or a
        list of them (one replicate per generator, a list of floats is
        returned).  ``k`` is one design vector shared by every replicate,
        or one design per generator, shape (len(rng), dim).  A list is
        stepped in batches of at most 64 consecutive replicates, which
        ``extra_observers`` follow in turn.  Before stepping, each
        replicate takes its integerization draws and then its whole
        environment block from its own generator, in list order, so a
        list that repeats one generator reproduces consecutive calls on
        it.  Every value is bit-identical to the one-generator call at its
        own design.
        """
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        ks = np.asarray(k, dtype=float)
        if ks.ndim < 2:
            ks = np.broadcast_to(ks.reshape(-1), (len(rngs), ks.size))
        elif len(ks) != len(rngs):
            raise ValueError(f"{len(ks)} designs for {len(rngs)} generators")
        if "simulator" in self.raw:
            values = [self._analytic_draw(kj, g) for kj, g in zip(ks, rngs)]
        else:
            values = []
            for lo in range(0, len(rngs), _MAX_BATCH):
                hi = lo + _MAX_BATCH
                values += self._run_batch(ks[lo:hi], rngs[lo:hi],
                                          extra_observers, rule)
        return values[0] if single else values

    def _run_batch(self, ks, rngs, extra_observers, rule):
        """One stepped batch: replicate j at design ks[j] from rngs[j]."""
        steps = self.raw["run"]["steps"]
        programs, envs = [], []
        for kj, g in zip(ks, rngs):
            params = self._integerize_params(self.design_params(kj), g)
            programs.append(self._signal_programs(params))
            with _rejected_as_config_error(f"{self.origin}: environment or measure"):
                envs.append(self._environment(params, g, steps))
        with _rejected_as_config_error(f"{self.origin}: environment or measure"):
            measure = self._measure()()
        rho0 = self.initial_densities()
        if len(rngs) == 1:  # one replicate steps a 1-D state: faster at B = 1
            env, programs = envs[0], programs[0]
        else:
            env = None if envs[0] is None else type(envs[0]).stack(envs)
            rho0 = np.tile(rho0, (len(rngs), 1))
        self.engine.run(rho0, steps, rule or self.interaction_rule(), env=env,
                        programs=programs, observers=(measure, *extra_observers))
        return [float(v) for v in np.broadcast_to(measure.value(), len(rngs))]

    def _analytic_draw(self, k, rng):
        sim = self.raw["simulator"]
        k = np.asarray(k, dtype=float).ravel()
        surface = sim.get("surface", "sincos2d")
        if surface == "sin1d":
            mean = math.sin(2 * math.pi * k[0])
        else:
            mean = math.sin(2 * math.pi * k[0]) * math.cos(2 * math.pi * k[1])
        return mean + sim.get("noise", 0.0) * rng.standard_normal()

    # -- evaluation / learning blocks -------------------------------------

    def _utility(self, u_cfg):
        with _rejected_as_config_error(f"{self.origin}: utility {u_cfg}"):
            if u_cfg["kind"] in ("polynomial", "expectile"):
                return Utility(u_cfg["kind"], c=float(u_cfg["c"]),
                               alpha=float(u_cfg["alpha"]))
            return Utility(u_cfg["kind"])

    def utility(self):
        return self._utility(self.raw.get("evaluation", {})
                             .get("utility", {"kind": "identity"}))

    def calibration_utilities(self):
        """(label, Utility) pairs: the configured utility plus listed extras."""
        extra = self.raw.get("evaluation", {}).get("utilities", [])
        return [("configured", self.utility())] + [
            (u_cfg.get("label", u_cfg["kind"]), self._utility(u_cfg))
            for u_cfg in extra]

    def benchmarks(self):
        bench_cfg = self.raw.get("evaluation", {}).get("benchmarks", {})
        with _rejected_as_config_error(f"{self.origin}: benchmarks"):
            return {label: BenchmarkSpec(e=float(b["e"]),
                                         sigma_target=float(b["sigma"]))
                    for label, b in bench_cfg.items()}

    def threshold(self):
        """The acceptance level gamma, explicit or benchmark-calibrated."""
        eval_cfg = self.raw.get("evaluation", {})
        thr = eval_cfg.get("threshold", {})
        if "gamma" in thr:
            return float(thr["gamma"])
        label = thr.get("benchmark")
        benches = self.benchmarks()
        if label not in benches:
            raise ConfigError(f"{self.origin}: threshold benchmark {label!r} "
                              "not defined")
        return calibrate_threshold(benches[label], self.utility())

    def loop_config(self):
        l_cfg = self.raw.get("learning")
        if l_cfg is None:
            raise ConfigError(f"{self.origin}: scenario has no learning block")
        scale = l_cfg.get("tau_scale", 1.0)
        if scale == "benchmark_gap":
            benches = self.benchmarks()
            u = self.utility()
            gammas = [calibrate_threshold(b, u) for b in benches.values()]
            scale = abs(max(gammas) - min(gammas))
        taus = l_cfg.get("tau_values")
        if taus is None:
            taus = [f * float(scale) for f in l_cfg["tau_fractions"]]
        c2 = l_cfg.get("c2")
        c2_0 = l_cfg.get("c2_0")
        if c2 is None and c2_0 is None:
            # acquisition noticeably peaked across the value scale
            c2_0 = 2.0 / float(scale)
        n_max = l_cfg.get("n_max", [3000])
        kernel = l_cfg.get("kernel", {})
        if not isinstance(kernel, dict):
            raise ConfigError(f"{self.origin}: learning.kernel {kernel!r} is not an object")
        if isinstance(n_max, int):
            n_max = [n_max]
        with _rejected_as_config_error(f"{self.origin}: learning"):
            config = LoopConfig(
                n_initial=int(l_cfg["n_initial"]),
                n_loop=int(l_cfg["n_loop"]),
                iterations=int(l_cfg["iterations"]),
                tau_schedule=tuple(float(t) for t in taus),
                n_min=int(l_cfg.get("n_min", 20)),
                n_max=tuple(int(n) for n in n_max),
                c1=float(l_cfg.get("c1", 5.0)),
                c2_0=(None if c2_0 is None else float(c2_0)),
                c2=(None if c2 is None else tuple(float(x) for x in c2)),
                c3=float(l_cfg.get("c3", 2.0)),
                max_trials=int(l_cfg.get("max_trials", 10000)),
                acquisition_variant=l_cfg.get("acquisition", "absolute"),
                delta=float(l_cfg.get("delta", 0.05)),
                n_eval=int(l_cfg.get("n_eval", 100000)),
                error_stop=l_cfg.get("error_stop"),
                kernel_variant=kernel.get("variant", "matern32"),
            )
        # checked here, not in LoopConfig, which also serves smaller test loops
        if config.n_initial < 3:
            raise ConfigError(f"{self.origin}: learning.n_initial {config.n_initial} "
                              "is below 3, the fewest points the kernel fit needs")
        if config.kernel_variant not in KERNEL_VARIANTS:
            raise ConfigError(f"{self.origin}: learning.kernel.variant "
                              f"{config.kernel_variant!r} is not one of "
                              f"{KERNEL_VARIANTS}")
        return config

    def grid_block(self):
        return self.raw.get("learning", {}).get("grid", {})

    def _check_grid(self):
        """Reject a learning.grid block that cannot describe a 2-D slice."""
        grid = self.grid_block()
        where = f"{self.origin}: learning.grid"
        if not isinstance(grid, dict):
            raise ConfigError(f"{where}: {grid!r} is not an object")
        if not grid:
            return
        names = self.design_names
        bounds = dict(zip(names, self.raw["design"]["bounds"])) if names else {}
        res = grid.get("resolution", 200)
        if type(res) is not int or res < 1:
            raise ConfigError(f"{where}: resolution {res!r} is not an integer >= 1")
        axes = grid.get("axes", names[:2])
        if (not isinstance(axes, list) or len(axes) != 2
                or not all(isinstance(a, str) and a in bounds for a in axes)
                or axes[0] == axes[1]):
            raise ConfigError(f"{where}: axes {axes!r} are not two distinct "
                              f"design parameters of {names}")
        fixed = grid.get("fixed", {})
        if not isinstance(fixed, dict):
            raise ConfigError(f"{where}: fixed {fixed!r} is not an object")
        for name, value in fixed.items():
            if name not in bounds or name in axes:
                raise ConfigError(f"{where}: fixed {name!r} is not a design "
                                  "parameter off the axes")
            lo, hi = bounds[name]
            if type(value) not in (int, float) or not lo <= value <= hi:
                raise ConfigError(f"{where}: fixed {name} = {value!r} is not a "
                                  f"number in [{lo}, {hi}]")

