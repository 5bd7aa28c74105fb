"""Scenario configuration: schema, loading, and the replicate runner.

A scenario file is JSON with a versioned schema.  It either describes a
traffic network (nodes, cells, signals, sources/sinks, run horizon,
performance measure) or an analytic test surface, plus the design-space
bounds and the estimation budgets.  Scalar fields that vary with the
design vector hold ``{"design": "<name>"}`` references.  ``Scenario``
parses and checks every setting at load; a replicate only resolves them.

``SCENARIO_SCHEMA`` states the file's structural rules once, in JSON
Schema (draft 2020-12), and ``HYPERPARAMETERS_SCHEMA`` those of the
posterior file that ``export-grid`` reads.  ``load_json`` checks a file
against its schema with the small interpreter below, which covers exactly
the keywords the schemas use.  The tests hold it to a reference JSON
Schema validator, which no command imports: it would load some 80 modules
at every start-up.  Where a ``oneOf`` branches on a tag such as ``kind``,
the errors reported are those of the branch the tag selects.

Before the schema check, ``load_json`` refuses a number that is NaN,
infinite or an integer beyond the float range, naming its JSON path.
Python's json module reads the ``NaN`` and ``Infinity`` literals, and
reads ``1e400`` as infinity; JSON Schema has no keyword that refuses them
(NaN passes every bound, and a reference validator accepts it as a
number), so this check stays outside the schema, and the schema check
keeps accepting exactly what the reference validator accepts.

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
import re
import sys
from contextlib import contextmanager

import numpy as np

from .cells import KINDS, CellSpec
from .env import ArCopulaEnvironment, GaussianPairsEnvironment
from .evaluation import (UTILITY_KINDS, AvgNetworkFlow, AvgVelocity, BenchmarkSpec,
                         Throughput, Utility, calibrate_threshold)
from .gpr import KERNEL_VARIANTS
from .learning import ACQUISITION_VARIANTS, DesignSpace, LoopConfig
from .network import NetworkError, TrafficNetwork
from .signals import SignalSchedule
from .solvers import InteractionRule, SimulationEngine

__all__ = ["ConfigError", "Scenario", "load_json", "load_scenario", "SCENARIO_SCHEMA",
           "HYPERPARAMETERS_SCHEMA"]


#: most replicates stepped together as one (B, n_routes) batch
_MAX_BATCH = 64

#: smallest green and shift of a signal program; a design-referenced one
#: stands at this value in the default schedule
_SIGNAL_FLOOR = {"green": 1, "shift": 0}

#: leading design parameters each analytic surface reads; the rest are unused
_SURFACE_DIM = {"sin1d": 1, "sincos2d": 2}


class ConfigError(ValueError):
    """Input rejected, naming its file and JSON path or line, or its flag."""


_DESIGN_REF = {
    "type": "object",
    "properties": {"design": {"type": "string"}},
    "required": ["design"],
    "additionalProperties": False,
}
_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_NUMBER_OR_REF = {"oneOf": [_NUMBER, _DESIGN_REF]}
_INTEGER = {"type": "integer"}

#: learning budgets, whole numbers
_BUDGETS = ("n_initial", "n_loop", "iterations", "max_trials", "n_eval")
_UTILITY = {"type": "object", "required": ["kind"],
            "properties": {"kind": {"enum": list(UTILITY_KINDS)},
                           "label": {"type": "string"}, "c": _NUMBER, "alpha": _NUMBER}}
#: a route (u, v, w) by node labels: from u through v to w
_ROUTE = {"type": "array", "items": _INTEGER, "minItems": 3, "maxItems": 3}
_COPULA_SOURCE = {"type": "object", "required": ["route", "sigma"],
                  "additionalProperties": False,
                  "properties": {"route": _ROUTE, "sigma": _NUMBER_OR_REF}}
_PAIR_SOURCE = {"type": "object", "required": ["route", "xi", "psi"],
                "additionalProperties": False,
                "properties": {"route": _ROUTE, "pair_route": _ROUTE, "pair_sign": _NUMBER,
                               "xi": _NUMBER_OR_REF, "psi": _NUMBER_OR_REF}}
_CONSTANT = {"type": "object", "required": ["route", "value"],
             "additionalProperties": False,
             "properties": {"route": _ROUTE, "value": _NUMBER_OR_REF, "scale": _NUMBER}}
_DENSITY = {"type": "number", "minimum": 0}
_CAP_FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
#: a probability strictly between 0 and 1, such as the credible level delta
_LEVEL = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
#: a node's four neighbours, counter-clockwise, by node label
_CCW = {"type": "array", "items": _INTEGER, "minItems": 4, "maxItems": 4}
#: a node label as an object key
_NODE_KEY = {"pattern": "^-?(0|[1-9][0-9]*)$"}
_SIGNAL = {
    "type": "object",
    "required": ["ccw", "green"],
    "properties": {
        "ccw": _CCW,
        "green": {"oneOf": [{"type": "integer", "minimum": 1}, _DESIGN_REF]},
        "shift": {"oneOf": [{"type": "integer", "minimum": 0}, _DESIGN_REF]},
        "t_safe": {"type": "integer"},
        "a_real": {"type": "number", "exclusiveMinimum": 0},
        "v_real_kmh": {"type": "number", "exclusiveMinimum": 0},
    },
}

#: one node group's cell parameters; ``ccw`` comes from ``signals`` or
#: ``roundabout_ccw``, and ``CellSpec`` checks the values
_CELL = {"type": "object", "required": ["kind"], "additionalProperties": False,
         "properties": {"kind": {"enum": list(KINDS)},
                        **dict.fromkeys(("s_max", "rho_max", "a", "b", "c", "d", "zeta"),
                                        _NUMBER),
                        "approach_capacity_fraction": _CAP_FRACTION}}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "name"],
    "dependentRequired": {"network": ["run"]},
    "properties": {
        "version": {"const": 1},
        "name": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
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
                "surface": {"enum": list(_SURFACE_DIM)},
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
                "cells": {"type": "object", "additionalProperties": _CELL},
                "turning": {"enum": ["uniform_no_uturn"]},
                "signals": {"type": "object", "propertyNames": _NODE_KEY,
                            "additionalProperties": _SIGNAL},
                "roundabout_ccw": {"type": "object", "propertyNames": _NODE_KEY,
                                   "additionalProperties": _CCW},
            },
        },
        "environment": {
            "type": "object",
            "oneOf": [
                {"required": ["kind"], "additionalProperties": False,
                 "properties": {"kind": {"const": "none"}}},
                {"required": ["kind", "copula_r", "sources"], "additionalProperties": False,
                 "properties": {
                     "kind": {"const": "ar_copula"},
                     "rho_cap_fraction": _CAP_FRACTION,
                     "copula_r": _NUMBER_OR_REF,
                     "sources": {"type": "array", "items": _COPULA_SOURCE,
                                 "minItems": 2, "maxItems": 2}}},
                {"required": ["kind", "sources"], "additionalProperties": False,
                 "properties": {
                     "kind": {"const": "gaussian_pairs"},
                     "rho_cap_fraction": _CAP_FRACTION,
                     "sources": {"type": "array", "items": _PAIR_SOURCE},
                     "constants": {"type": "array", "items": _CONSTANT}}},
            ],
        },
        "run": {
            "type": "object",
            "required": ["steps", "initial_density"],
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "t_real": {"type": "number", "exclusiveMinimum": 0},
                "rule": {"enum": list(InteractionRule.VARIANTS)},
                "initial_density": {"type": "object", "oneOf": [
                    {"required": ["values"], "properties": {
                        "mode": {"const": "per_route"},
                        "values": {"type": "object", "additionalProperties": _DENSITY}}},
                    {"required": ["mode", "fraction"], "properties": {
                        "mode": {"const": "max_density_fraction"},
                        "fraction": {**_DENSITY, "maximum": 1}}},
                ]},
            },
        },
        "evaluation": {
            "type": "object",
            "properties": {
                "measure": {"type": "object", "required": ["kind"], "properties": {
                    "kind": {"enum": ["avg_network_flow", "throughput", "avg_velocity"]},
                    "routes": {"type": "array", "items": _ROUTE}}},
                "utility": _UTILITY,
                "utilities": {"type": "array", "items": _UTILITY},
                "benchmarks": {"type": "object", "additionalProperties": {
                    "type": "object", "required": ["e", "sigma"],
                    "properties": {"e": _NUMBER, "sigma": _NUMBER}}},
                "threshold": {"type": "object", "properties": {
                    "gamma": _NUMBER, "benchmark": {"type": "string"}}},
            },
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                **dict.fromkeys(_BUDGETS, _INTEGER),
                "n_min": {"type": "integer", "minimum": 2},
                "n_max": {"oneOf": [_INTEGER, {"type": "array", "items": _INTEGER}]},
                **dict.fromkeys(("c1", "c2_0", "c3", "error_stop"), _NUMBER),
                "delta": _LEVEL,
                "c2": {"oneOf": [_NUMBER, _NUMBERS]},
                "tau_values": _NUMBERS,
                "tau_fractions": _NUMBERS,
                "tau_scale": {"oneOf": [_NUMBER, {"const": "benchmark_gap"}]},
                "acquisition": {"enum": list(ACQUISITION_VARIANTS)},
                "kernel": {"type": "object", "additionalProperties": False,
                           "properties": {"variant": {"enum": list(KERNEL_VARIANTS)}}},
                "grid": {"type": "object", "additionalProperties": False, "properties": {
                    "resolution": {"type": "integer", "minimum": 1},
                    "axes": {"type": "array", "items": {"type": "string"},
                             "minItems": 2, "maxItems": 2},
                    "fixed": {"type": "object", "additionalProperties": _NUMBER}}},
            },
        },
    },
}

#: the fitted posterior that ``estimate-levelset`` writes and ``export-grid`` reads
HYPERPARAMETERS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["variant", "sigma_c", "length", "mu_bar", "s_bar", "gamma"],
    "properties": {
        "variant": {"enum": list(KERNEL_VARIANTS)},
        **dict.fromkeys(("sigma_c", "length", "s_bar"),
                        {"type": "number", "exclusiveMinimum": 0}),
        "mu_bar": _NUMBER,
        "gamma": _NUMBER,
        "delta": _LEVEL,
    },
}


#: the keywords ``_validate`` implements
_KEYWORDS = frozenset({
    "type", "const", "enum", "oneOf", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "items", "minItems", "maxItems", "required",
    "dependentRequired", "properties", "additionalProperties", "propertyNames",
    "pattern"})

_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "boolean": bool, "null": type(None)}

#: numeric bounds: keyword -> (is the value past it, message)
_BOUNDS = {"minimum": (lambda x, b: x < b, "less than the minimum of"),
           "exclusiveMinimum": (lambda x, b: x <= b,
                                "less than or equal to the minimum of"),
           "maximum": (lambda x, b: x > b, "greater than the maximum of"),
           "exclusiveMaximum": (lambda x, b: x >= b,
                                "greater than or equal to the maximum of")}


def _is_type(value, kind):
    """JSON Schema's type test: a whole float is an integer, a bool no number."""
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _TYPES[kind])


def _same(a, b):
    """JSON equality: 1 equals 1.0, but true does not equal 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _none_valid(failed, value, path):
    """The errors to report for a oneOf under none of whose branches
    ``value`` is valid; ``failed`` pairs each branch with its errors.  When
    every branch fixes one key by a ``const`` (a tag such as ``kind``), they
    are the errors of the branch the value's tag selects, or of the branch
    that does not require the tag when the value has none."""
    tags = set.intersection(*({key for key, sub in branch.get("properties", {}).items()
                               if "const" in sub} for branch, _ in failed))
    if not tags or not isinstance(value, dict):
        return [(path, f"{value!r} is valid under none of the schemas")]
    tag = min(tags)
    consts = [branch["properties"][tag]["const"] for branch, _ in failed]
    chosen = [errors for (branch, errors), const in zip(failed, consts)
              if (_same(value[tag], const) if tag in value
                  else tag not in branch.get("required", ()))]
    if chosen:
        return chosen[0]
    if tag in value:
        return [((*path, tag), f"{value[tag]!r} is not one of {consts!r}")]
    return [(path, f"{tag!r} is a required property")]


def _validate(schema, value, path, errors):
    """``value`` checked against ``schema``: its errors are appended to
    ``errors`` as (path, message) pairs in document order.  Returns the
    value with each whole float where an integer is asked for turned into
    that int, so 8.0 runs as 8 does; the input is left as it is."""
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        errors.append((path, f"{value!r} is not of type {kind!r}"))
        return value
    if kind == "integer":
        value = int(value)
    if "const" in schema and not _same(value, schema["const"]):
        errors.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if "oneOf" in schema:
        valid, failed = [], []
        for branch in schema["oneOf"]:
            branch_errors = []
            checked = _validate(branch, value, path, branch_errors)
            if branch_errors:
                failed.append((branch, branch_errors))
            else:
                valid.append(checked)
        if len(valid) == 1:
            value = valid[0]
        elif valid:
            errors.append((path, f"{value!r} is valid under more than one of the "
                                 "schemas"))
        else:
            errors += _none_valid(failed, value, path)
    for key, (past, words) in _BOUNDS.items():
        if key in schema and _is_type(value, "number") and past(value, schema[key]):
            errors.append((path, f"{value!r} is {words} {schema[key]!r}"))
    if isinstance(value, str) and "pattern" in schema \
            and not re.search(schema["pattern"], value):
        errors.append((path, f"{value!r} does not match {schema['pattern']!r}"))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} has under {schema['minItems']} items"))
        if len(value) > schema.get("maxItems", len(value)):
            errors.append((path, f"{value!r} has over {schema['maxItems']} items"))
        if "items" in schema:
            value = [_validate(schema["items"], item, (*path, i), errors)
                     for i, item in enumerate(value)]
    if isinstance(value, dict):
        errors += [(path, f"{key!r} is a required property")
                   for key in schema.get("required", ()) if key not in value]
        errors += [(path, f"{need!r} is a dependency of {key!r}")
                   for key, needs in schema.get("dependentRequired", {}).items()
                   if key in value for need in needs if need not in value]
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        checked = {}
        for key, item in value.items():
            if "propertyNames" in schema:
                _validate(schema["propertyNames"], key, path, errors)
            sub = props.get(key, extra)
            if sub is False:
                errors.append((path, f"additional property {key!r} is not allowed"))
            elif sub is not True:
                item = _validate(sub, item, (*path, key), errors)
            checked[key] = item
        value = checked
    return value


def _at_path(origin, path, message):
    return ConfigError(f"{origin}: at {'/'.join(map(str, path)) or '<root>'}: {message}")


def _validated(raw, origin, schema):
    """``raw`` checked against ``schema``, whole floats at integer keys read
    as integers; a violation raises a ConfigError naming the one nearest
    the root, the first in the file on a tie."""
    errors = []
    raw = _validate(schema, raw, (), errors)
    if errors:
        raise _at_path(origin, *min(errors, key=lambda error: len(error[0])))
    return raw


def _check_finite(node, origin, path=()):
    """Raise a ConfigError at the first number in ``node`` that is NaN,
    infinite or an integer beyond the float range."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            _check_finite(child, origin, (*path, key))
    elif isinstance(node, float) and not math.isfinite(node):
        raise _at_path(origin, path, f"{node!r} is not a finite number")
    elif isinstance(node, int) and not abs(node) <= sys.float_info.max:
        raise _at_path(origin, path, "the integer is beyond the float range")


def load_json(path, schema):
    """The JSON document in the file ``path``, its numbers finite, checked
    against ``schema`` (see the module docstring)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON (by line), not UTF-8, a 4300+ digit int
        raise ConfigError(f"{path}: {exc}") from None
    _check_finite(raw, path)
    return _validated(raw, path, schema)


def load_scenario(path):
    """The scenario in the file ``path``, checked by ``load_json``."""
    return Scenario(load_json(path, SCENARIO_SCHEMA), origin=str(path))


def _present(cfg, keys):
    """Keyword arguments of the ``keys`` (key -> (field, conversion)) in ``cfg``."""
    return {field: conv(cfg[key]) for key, (field, conv) in keys.items() if key in cfg}


#: optional signal entry keys; SignalSchedule owns their defaults
_SIGNAL_KEYS = {"a_real": ("a_real", float),
                "v_real_kmh": ("v_real", lambda kmh: float(kmh) / 3.6),
                "t_safe": ("t_safe", int)}


def _at(value, params):
    """A parsed setting, a design parameter's name replaced by its value; a
    list setting entry by entry."""
    if isinstance(value, list):
        return [_at(v, params) for v in value]
    return float(params[value]) if isinstance(value, str) else value


@contextmanager
def _rejected_as_config_error(context):
    """Re-raise a constructor's ValueError as a ConfigError naming ``context``."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{context}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


class Scenario:
    """A validated scenario: parses its settings and builds the engine once."""

    def __init__(self, raw, origin="<dict>"):
        self.raw = raw
        self.origin = origin
        self.name = raw["name"]
        self.seed = raw.get("seed", 0)
        design = raw.get("design", {})
        self.design_names = list(design.get("names", []))
        self._integerized = [name for name in design.get("integerized", [])
                             if name in self.design_names]
        self.rule = self._analytic = None
        if "simulator" in raw:
            sim = raw["simulator"]
            surface = sim.get("surface", "sincos2d")
            self._analytic = (surface, float(sim.get("noise", 0.0)))
            if len(self.design_names) < _SURFACE_DIM[surface]:
                raise ConfigError(
                    f"{origin}: simulator.surface {surface!r} reads the first "
                    f"{_SURFACE_DIM[surface]} design parameter(s), design.names has "
                    f"{len(self.design_names)}")
        if "network" in raw:
            self._build_network()
            run = raw["run"]
            self.steps = run["steps"]
            self.rule = InteractionRule(run.get("rule", "dpf"))
            self._rho0 = self._initial_densities(run["initial_density"])
            self._parse_environment(raw.get("environment", {"kind": "none"}))
            self._measure = self._parse_measure(
                raw.get("evaluation", {}).get("measure", {"kind": "avg_network_flow"}))
        self._parse_grid()
        self._check_n_max()

    # -- design space --------------------------------------------------

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

    def _design_value(self, value, where):
        """A literal as a float; a design reference as the parameter's name."""
        if not isinstance(value, dict):
            return float(value)
        if value["design"] not in self.design_names:
            raise ConfigError(f"{where}: unknown design parameter {value['design']!r}")
        return value["design"]

    # -- network construction -------------------------------------------

    def _node_id(self, node):
        try:
            return self._node_index[node]
        except KeyError:
            raise ConfigError(
                f"{self.origin}: unknown node {node} referenced") from None

    def _route(self, triple, where):
        """Index of the route named by three node labels; it must exist."""
        try:
            return self.network.index_of(*(self._node_index[n] for n in triple))
        except (KeyError, NetworkError):
            raise ConfigError(f"{where}: {triple!r} is not a route of the "
                              "network") from None

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

        self._build_signals(signals_cfg)
        self.engine = SimulationEngine(self.network, self.node_cells, self.signals)

    def _build_signals(self, signals_cfg):
        """One default schedule per signalized node; a design-referenced
        green or shift stands at its floor until ``_signal_programs``."""
        timing = _present(self.raw.get("run", {}), {"t_real": ("t_real", float)})
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
                elif value["design"] in self._integerized:
                    self._signal_refs.append((v, key, value["design"]))
                else:
                    raise ConfigError(
                        f"{where}: {key} references {value['design']!r}, which "
                        "is not a design parameter listed under design.integerized")
            self.signals[v] = SignalSchedule(
                ccw=tuple(self._node_id(x) for x in sig["ccw"]), **fields,
                **timing, **_present(sig, _SIGNAL_KEYS))

    # -- run settings, parsed at load ------------------------------------

    def _initial_densities(self, init_cfg):
        """Route densities at t = 0 from the run.initial_density block; a
        node's total stays within its rho_max."""
        rho0 = np.zeros(self.network.n_routes)
        if init_cfg.get("mode", "per_route") == "per_route":
            values = init_cfg["values"]
            with _rejected_as_config_error(f"{self.origin}: run.initial_density"):
                for i, r in enumerate(self.network.routes):
                    rho0[i] = float(values[self._group_of[self.node_labels[r.via]]])
            for v, cell in self.node_cells.items():
                count = len(self.network.routes_through(v))
                g = self._group_of[self.node_labels[v]]
                if count and values[g] * count > cell.rho_max:
                    raise _at_path(self.origin, ("run", "initial_density", "values", g),
                                   f"{values[g]!r} on each of the {count} routes through "
                                   f"node {self.node_labels[v]} exceeds its rho_max "
                                   f"{cell.rho_max!r}")
        else:
            frac = float(init_cfg["fraction"])
            for v in range(self.network.n_nodes):
                idx = self.network.routes_through(v)
                if len(idx) == 0:
                    continue
                rho_max = self.node_cells[v].rho_max
                rho0[idx] = rho_max * frac / len(idx)
        return rho0

    def initial_densities(self):
        """Route densities at t = 0, a fresh array."""
        return self._rho0.copy()

    def _parse_environment(self, env_cfg):
        """The environment, built once, and the values its ``draw`` takes,
        design references kept as parameter names."""
        kind = env_cfg["kind"]
        self.environment, self._env_routes = None, []
        if kind == "none":
            return
        where = f"{self.origin}: environment"
        con = f"{where}.constants"
        cap = float(env_cfg.get("rho_cap_fraction", 1.0))
        caps = {v: cell.rho_max * cap for v, cell in self.node_cells.items()}
        sources = [self._source(s, f"{where}.sources") for s in env_cfg["sources"]]
        constants = [(self._route(e["route"], con), float(e.get("scale", 1.0)),
                      self._design_value(e["value"], con))
                     for e in env_cfg.get("constants", [])]
        self._env_routes = ([s["route"] for s in sources]
                            + [s["pair_route"] for s in sources if "pair_route" in s]
                            + [route for route, _, _ in constants])
        if kind == "ar_copula":
            self._env_values = {"sigma": [s["sigma"] for s in sources],
                                "r": self._design_value(env_cfg["copula_r"], where)}
            self.environment = ArCopulaEnvironment(
                self.network, caps, [s["route"] for s in sources])
        else:
            self._env_values = {key: [s[key] for s in sources] for key in ("xi", "psi")}
            self._env_values["constants"] = [value for _, _, value in constants]
            self.environment = GaussianPairsEnvironment(
                self.network, caps, [(route, scale) for route, scale, _ in constants],
                [(s["route"], s.get("pair_route"), s.get("pair_sign", -1.0))
                 for s in sources])

    def _source(self, entry, where):
        """A source's settings: routes as route indices, numbers as floats,
        design references as parameter names."""
        return {key: self._route(value, where) if key.endswith("route")
                else self._design_value(value, where) for key, value in entry.items()}

    def _parse_measure(self, m_cfg):
        """Factory of one replicate's performance observer."""
        where = f"{self.origin}: evaluation.measure"
        kind = m_cfg["kind"]
        if kind == "avg_network_flow":
            return AvgNetworkFlow
        if kind == "throughput":
            return lambda: Throughput(self._env_routes)
        if kind == "avg_velocity":
            with _rejected_as_config_error(where):
                idx = [self._route(r, where) for r in m_cfg["routes"]]
            free = [self.node_cells[self.network.routes[i].via].a for i in idx]
            return lambda: AvgVelocity(idx, free)

    # -- per-replicate assembly ------------------------------------------

    def _replicate_params(self, k, rng):
        """Design parameters of one replicate: the integerized ones rounded to
        an adjacent integer, drawing from ``rng`` in declared order."""
        params = self.design_params(k)
        for name in self._integerized:
            x = params[name]
            frac = x - math.floor(x)
            params[name] = math.floor(x) + (1.0 if rng.random() < frac else 0.0)
        return params

    def _signal_programs(self, params):
        """Node -> SignalSchedule of one replicate, design values in place."""
        programs = dict(self.signals)
        for v, key, name in self._signal_refs:
            value = max(_SIGNAL_FLOOR[key], int(params[name]))
            programs[v] = dataclasses.replace(programs[v], **{key: value})
        return programs

    def _attempts(self, params, rng):
        """One replicate's block of attempted flows, drawn from ``rng``."""
        if self.environment is None:
            return None
        with _rejected_as_config_error(f"{self.origin}: environment"):
            return self.environment.draw(rng, self.steps, **{
                key: _at(value, params) for key, value in self._env_values.items()})

    # -- running ----------------------------------------------------------

    def run_replicate(self, k, rng, extra_observers=(), rule=None):
        """Trajectories at design k; returns their performance statistics.

        ``rng`` is one Generator (one replicate, a float is returned) or a
        list of them (one replicate per generator, a list of floats is
        returned).  ``k`` is one design vector shared by every replicate,
        or one design per generator, shape (len(rng), dim).  A list is
        stepped in batches of at most 64 consecutive replicates, which
        ``extra_observers`` follow in turn: a batch's densities and
        ``FlowRecord`` arrays are route-major, (n_routes, B), and one
        replicate's are (n_routes,).  Before stepping, each
        replicate takes its integerization draws and then its whole
        environment block from its own generator, in list order, so a
        list that repeats one generator reproduces consecutive calls on
        it.  Every value is bit-identical to the one-generator call at its
        own design.  ``rule`` overrides the scenario's interaction rule.
        """
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        ks = np.asarray(k, dtype=float)
        if ks.ndim < 2:
            ks = np.broadcast_to(ks.reshape(-1), (len(rngs), ks.size))
        elif len(ks) != len(rngs):
            raise ValueError(f"{len(ks)} designs for {len(rngs)} generators")
        if self._analytic is not None:
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
        programs, blocks = [], []
        for kj, g in zip(ks, rngs):
            params = self._replicate_params(kj, g)
            programs.append(self._signal_programs(params))
            blocks.append(self._attempts(params, g))
        measure = self._measure()
        if len(rngs) == 1:  # one replicate steps a 1-D state: faster at B = 1
            attempts, programs, rho0 = blocks[0], programs[0], self._rho0
        else:
            attempts = None if self.environment is None else np.stack(blocks, axis=2)
            rho0 = np.tile(self._rho0, (len(rngs), 1))
        env = None if attempts is None else self.environment.with_attempts(attempts)
        self.engine.run(rho0, self.steps, rule or self.rule, env=env,
                        programs=programs, observers=(measure, *extra_observers))
        return [float(v) for v in np.broadcast_to(measure.value(), len(rngs))]

    def _analytic_draw(self, k, rng):
        surface, noise = self._analytic
        if surface == "sin1d":
            mean = math.sin(2 * math.pi * k[0])
        else:
            mean = math.sin(2 * math.pi * k[0]) * math.cos(2 * math.pi * k[1])
        return mean + noise * rng.standard_normal()

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
        """The learning block as a LoopConfig; built on request, because a
        ``benchmark_gap`` tau scale calibrates thresholds."""
        l_cfg = self.raw.get("learning")
        if l_cfg is None:
            raise ConfigError(f"{self.origin}: scenario has no learning block")
        with _rejected_as_config_error(f"{self.origin}: learning"):
            scale = l_cfg.get("tau_scale", 1.0)
            if scale == "benchmark_gap":
                benches = self.benchmarks()
                u = self.utility()
                gammas = [calibrate_threshold(b, u) for b in benches.values()]
                scale = abs(max(gammas) - min(gammas))
            taus = l_cfg.get("tau_values")
            if taus is None:
                taus = [f * float(scale) for f in l_cfg["tau_fractions"]]
            # a key named as a LoopConfig field passes as it is; LoopConfig
            # owns the defaults of those the scenario leaves out
            fields = {f.name: l_cfg[f.name] for f in dataclasses.fields(LoopConfig)
                      if f.name in l_cfg}
            for key in ("n_max", "c2"):
                if key in fields:
                    fields[key] = tuple(np.atleast_1d(fields[key]).tolist())
            if "acquisition" in l_cfg:
                fields["acquisition_variant"] = l_cfg["acquisition"]
            if "c2" not in fields and "c2_0" not in fields:
                # acquisition noticeably peaked across the value scale
                fields["c2_0"] = 2.0 / float(scale)
            if "variant" in l_cfg.get("kernel", {}):
                fields["kernel_variant"] = l_cfg["kernel"]["variant"]
            config = LoopConfig(tau_schedule=tuple(float(t) for t in taus), **fields)
        # checked here, not in LoopConfig, which also serves smaller test loops
        if config.n_initial < 3:
            raise ConfigError(f"{self.origin}: learning.n_initial {config.n_initial} "
                              "is below 3, the fewest points the kernel fit needs")
        return config

    def _check_n_max(self):
        """Every n_max entry is at least n_min, LoopConfig's default for a
        key left out: sequential Monte Carlo draws n_min replicates first."""
        l_cfg = self.raw.get("learning", {})
        n_min = l_cfg.get("n_min", LoopConfig.n_min)
        n_max = l_cfg.get("n_max", LoopConfig.n_max[0])
        paths = ([("learning", "n_max", i) for i in range(len(n_max))]
                 if isinstance(n_max, list)
                 else [("learning", "n_max" if "n_max" in l_cfg else "n_min")])
        for path, n in zip(paths, np.atleast_1d(n_max).tolist()):
            if n < n_min:
                raise _at_path(self.origin, path, f"n_max {n!r} is below n_min {n_min!r}")

    def _parse_grid(self):
        """``grid_axes``, ``grid_resolution`` and ``grid_fixed`` of learning.grid,
        which must describe a 2-D slice of the design space."""
        grid = self.raw.get("learning", {}).get("grid", {})
        where = f"{self.origin}: learning.grid"
        names = self.design_names
        self.grid_axes = axes = grid.get("axes", names[:2])
        self.grid_resolution = grid.get("resolution", 200)
        self.grid_fixed = fixed = grid.get("fixed", {})
        if not grid:
            return
        bounds = dict(zip(names, self.raw["design"]["bounds"])) if names else {}
        if len(set(axes)) != 2 or not all(a in bounds for a in axes):
            raise ConfigError(f"{where}: axes {axes!r} are not two distinct "
                              f"design parameters of {names}")
        for name, value in fixed.items():
            if name not in bounds or name in axes:
                raise ConfigError(f"{where}: fixed {name!r} is not a design "
                                  "parameter off the axes")
            lo, hi = bounds[name]
            if not lo <= value <= hi:
                raise ConfigError(f"{where}: fixed {name} = {value!r} is not a "
                                  f"number in [{lo}, {hi}]")
