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

import json
import math
from contextlib import contextmanager

import numpy as np

from .cells import CellSpec
from .env import (ArCopulaEnvironment, ArSourceSink, FrankCopula,
                  GaussianPairsEnvironment, GaussianSourceSink)
from .evaluation import (AvgNetworkFlow, AvgVelocity, BenchmarkSpec, Throughput,
                         Utility, calibrate_threshold)
from .learning import DesignSpace, LoopConfig
from .network import TrafficNetwork, TurningFractions
from .signals import SignalSchedule
from .solvers import InteractionRule, SimulationEngine

__all__ = ["ConfigError", "Scenario", "load_scenario", "SCENARIO_SCHEMA"]


class ConfigError(ValueError):
    """Scenario file rejected, with a JSON-path or line-precise message."""


_DESIGN_REF = {
    "type": "object",
    "properties": {"design": {"type": "string"}},
    "required": ["design"],
    "additionalProperties": False,
}
_NUMBER_OR_REF = {"oneOf": [{"type": "number"}, _DESIGN_REF]}

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
                "signals": {"type": "object"},
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
    import jsonschema

    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _json_error(path, exc) from None
    try:
        jsonschema.validate(raw, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {loc}: {exc.message}") from None
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
        self._engine = None
        self._node_index = None
        if "network" in raw:
            self._build_network()

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
                   **{k: v["ccw"] for k, v in signals_cfg.items() if "ccw" in v}}
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
                self.node_cells[self._node_id(n)] = CellSpec(kind=kind, **params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{self.origin}: cell of node {n} ({g}): {exc}") from None

        if net_cfg["turning"] != "uniform_no_uturn":
            raise ConfigError(f"{self.origin}: unsupported turning rule")
        self.turning = TurningFractions.uniform_no_uturn(self.network)

        self._signal_templates = {}
        run_cfg = self.raw.get("run", {})
        t_real = float(run_cfg.get("t_real", 1.0))
        for node_str, sig in signals_cfg.items():
            n = int(node_str)
            self._signal_templates[self._node_id(n)] = {
                "ccw": tuple(self._node_id(x) for x in sig["ccw"]),
                "green": sig["green"],
                "shift": sig.get("shift", 0),
                "t_real": t_real,
                "a_real": float(sig.get("a_real", 1.5)),
                "v_real": float(sig.get("v_real_kmh", 50.0)) / 3.6,
                "t_safe": int(sig.get("t_safe", 2)),
            }

    def engine(self):
        if self._engine is None:
            base = {}
            for v, tpl in self._signal_templates.items():
                base[v] = SignalSchedule(
                    ccw=tpl["ccw"], green=max(1, int(round(_const_or(tpl["green"], 1)))),
                    shift=max(0, int(round(_const_or(tpl["shift"], 0)))),
                    t_real=tpl["t_real"], a_real=tpl["a_real"],
                    v_real=tpl["v_real"], t_safe=tpl["t_safe"])
            self._engine = SimulationEngine(self.network, self.node_cells,
                                            self.turning, base)
        return self._engine

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
        programs = {}
        for v, tpl in self._signal_templates.items():
            green = max(1, int(_resolve(tpl["green"], params, "signal green")))
            shift = max(0, int(_resolve(tpl["shift"], params, "signal shift")))
            programs[v] = SignalSchedule(
                ccw=tpl["ccw"], green=green, shift=shift, t_real=tpl["t_real"],
                a_real=tpl["a_real"], v_real=tpl["v_real"], t_safe=tpl["t_safe"])
        return programs

    def _node_caps(self, cap_fraction):
        return {v: self.node_cells[v].rho_max * cap_fraction
                for v in range(self.network.n_nodes)}

    def _environment(self, params, rng):
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
            return ArCopulaEnvironment(self.network, sources, copula, caps, rng)
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
                                            caps, rng)
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
        """One trajectory at design k; returns the performance statistic.

        Consumes the generator in a fixed order: integerization draws
        first, then the environment's per-step draws.
        """
        if "simulator" in self.raw:
            return self._analytic_draw(k, rng)
        params = self._integerize_params(self.design_params(k), rng)
        programs = self._signal_programs(params)
        with _rejected_as_config_error(f"{self.origin}: environment or measure"):
            env = self._environment(params, rng)
            measure = self._measure()()
        engine = self.engine()
        engine.run(self.initial_densities(), self.raw["run"]["steps"],
                   rule or self.interaction_rule(), env=env, programs=programs,
                   observers=(measure, *extra_observers))
        return measure.value()

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
        if isinstance(n_max, int):
            n_max = [n_max]
        with _rejected_as_config_error(f"{self.origin}: learning"):
            return LoopConfig(
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
                kernel_variant=l_cfg.get("kernel", {}).get("variant", "matern32"),
            )

    def grid_block(self):
        return self.raw.get("learning", {}).get("grid", {})


def _const_or(value, placeholder):
    """A literal schedule value, or ``placeholder`` for a design reference."""
    return value if isinstance(value, (int, float)) else placeholder
