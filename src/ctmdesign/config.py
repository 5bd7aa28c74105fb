"""Scenario configuration: schema, loading, and the replicate runner.

A scenario file is JSON with a versioned schema.  It either describes a
traffic network (nodes, cells, signals, sources/sinks, run horizon,
performance measure) or an analytic test surface, plus the design-space
bounds and the estimation budgets.  Scalar fields that vary with the
design vector hold ``{"design": "<name>"}`` references.  ``Scenario``
parses and checks every setting at load; a replicate only resolves them.

``SCENARIO_SCHEMA`` states the file's structural rules once, in JSON
Schema (draft 2020-12), and ``HYPERPARAMETERS_SCHEMA`` those of the
posterior file that ``export-grid`` reads: each key's type, its range
(``minimum``, ``exclusiveMinimum``, ...) and the value it takes when left
out (the ``default`` annotation).  ``load_json`` and ``Scenario`` check a
document against its schema with the small interpreter below, which
covers exactly the keywords the schemas use and fills in the defaults in
the same walk (``load_scenario`` leaves its one walk to ``Scenario``).
The tests hold it to a reference JSON Schema validator, which no command
imports: it would load some 80 modules at every start-up.  Where a
``oneOf`` branches on a tag such as ``kind``, the errors reported are
those of the branch the tag selects.

``Scenario`` keeps the document it is given (``raw``, whose hash the run
manifests record) and reads every setting from ``settings``, the document
checked with its defaults filled in.  At load it refuses what a schema
cannot state: cross-references (node labels, ccw arrays, routes, design
parameters, a threshold's benchmark), the keyed blocks, the design
block's rules and the learning rules that tie keys together.  A keyed
block holds one entry per owner and no other: ``network.lengths``,
``network.cells`` and ``run.initial_density.values`` one per node group,
``network.signals`` one per signalized node and ``network.roundabout_ccw``
one per roundabout node.  Each refusal, the schema's or ``Scenario``'s,
names the file and a JSON path in it by the file's own labels.  The
defaults a schema cannot state are derived in code, each once: the
grid's axes and off-axis values, c2_0, the tau schedule from
``tau_fractions`` and a utility's label.  The records it builds
(``CellSpec``, ``SignalSchedule``, ``Utility``, ``BenchmarkSpec``,
``DesignSpace``, ``LoopConfig``) take their values as given.

Before the schema check, ``load_json`` and ``load_scenario`` refuse a
number that is NaN, infinite or an integer beyond the float range,
naming its JSON path.  Python's json module reads the ``NaN`` and
``Infinity`` literals, and reads ``1e400`` as infinity; JSON Schema has
no keyword that refuses them (NaN passes every bound, and a reference
validator accepts it as a number), so this check stays outside the
schema, and the schema check keeps accepting exactly what the reference
validator accepts.

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
import sys
from contextlib import contextmanager

import numpy as np

from .cells import KINDS, CellSpec
from .env import ArCopulaEnvironment, GaussianPairsEnvironment
from .evaluation import (AvgNetworkFlow, AvgVelocity, BenchmarkSpec,
                         Throughput, Utility, calibrate_threshold)
from .network import NetworkError, TrafficNetwork
from .signals import SignalSchedule
from .solvers import InteractionRule, SimulationEngine

__all__ = ["ConfigError", "Scenario", "load_json", "load_scenario", "SCENARIO_SCHEMA",
           "HYPERPARAMETERS_SCHEMA", "KERNEL_VARIANTS", "ACQUISITION_VARIANTS"]

#: the GP's covariance kernels (``gpr.Kernel``); stated here, with the
#: schema that reads them, so that a replicate command compiles no GP code
KERNEL_VARIANTS = ("squared_exponential", "matern12", "matern32", "matern52")

#: acquisition variants of the learning loop: I(k) from the gap
#: |m(k) - gamma| as it is, or divided by sigma(k)
ACQUISITION_VARIANTS = ("absolute", "scaled")


#: most replicates stepped together as one (B, n_routes) batch
_MAX_BATCH = 64

#: each block of ccw arrays, and the Z_4 kinds of the nodes it holds one for
_CCW_KINDS = {"signals": ["signalized_intersection"],
              "roundabout_ccw": ["uni_roundabout", "bi_roundabout"]}

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
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
#: a route (u, v, w) by node labels: from u through v to w
_ROUTE = {"type": "array", "items": _INTEGER, "minItems": 3, "maxItems": 3}
#: a noise scale of a source: a literal one is at least 0, and ``Scenario``
#: refuses a design parameter whose bounds let it fall below 0
_SCALE_OR_REF = {"oneOf": [{"type": "number", "minimum": 0}, _DESIGN_REF]}
_COPULA_SOURCE = {"type": "object", "required": ["route", "sigma"],
                  "additionalProperties": False,
                  "properties": {"route": _ROUTE, "sigma": _SCALE_OR_REF}}
_PAIR_SOURCE = {"type": "object", "required": ["route", "xi", "psi"],
                "additionalProperties": False,
                "properties": {"route": _ROUTE, "pair_route": _ROUTE,
                               "pair_sign": {**_NUMBER, "default": -1.0},
                               "xi": _NUMBER_OR_REF, "psi": _SCALE_OR_REF}}
_CONSTANT = {"type": "object", "required": ["route", "value"],
             "additionalProperties": False,
             "properties": {"route": _ROUTE, "value": _NUMBER_OR_REF,
                            "scale": {**_NUMBER, "default": 1.0}}}
_DENSITY = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
#: the share of rho_max an environment route may hold
_RHO_CAP = {**_FRACTION, "default": 1.0}
#: the credible level delta, a probability strictly between 0 and 1
_DELTA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1, "default": 0.05}
#: a node's four neighbours, counter-clockwise, by node label
_CCW = {"type": "array", "items": _INTEGER, "minItems": 4, "maxItems": 4}
_SIGNAL = {
    "type": "object",
    "required": ["ccw", "green"],
    "properties": {
        "ccw": _CCW,
        "green": {"oneOf": [{"type": "integer", "minimum": 1}, _DESIGN_REF]},
        "shift": {"oneOf": [{"type": "integer", "minimum": 0}, _DESIGN_REF], "default": 0},
        "t_safe": {"type": "integer", "default": 2},
        "a_real": {**_POSITIVE, "default": 1.5},
        "v_real_kmh": {**_POSITIVE, "default": 50},
    },
}

#: the cell parameters each kind reads besides s_max, rho_max, a, b and c
_CELL_READS = {
    "highway": {},
    "bidirectional_interface": {"d": _POSITIVE},
    "pedestrian_square": {"d": _POSITIVE},
    "simplified_intersection": {"zeta": _POSITIVE},
    "signalized_intersection": {"zeta": _POSITIVE,
                                "approach_capacity_fraction": {**_FRACTION, "default": 0.25}},
    "uni_roundabout": {"d": _POSITIVE},
    "bi_roundabout": {"d": _POSITIVE},
}


def _tagged(kind, properties, optional=()):
    """The oneOf branch of an object whose ``kind`` is ``kind``: it holds no
    key but ``properties``, and requires each without a default that is
    not ``optional``."""
    return {"required": ["kind", *(key for key, sub in properties.items()
                                   if "default" not in sub and key not in optional)],
            "additionalProperties": False,
            "properties": {"kind": {"const": kind}, **properties}}


#: one node group's cell parameters, by kind; ``ccw`` comes from ``signals``
#: or ``roundabout_ccw``
_CELL = {"type": "object", "oneOf": [
    _tagged(kind, {"s_max": _POSITIVE, "rho_max": _POSITIVE, "a": _FRACTION,
                   "b": _FRACTION, "c": {**_POSITIVE, "default": 1.0}, **_CELL_READS[kind]})
    for kind in KINDS]}
#: a utility by kind, with an optional label: a polynomial one is
#: non-decreasing for alpha >= 1, an expectile for alpha in [0, 1/2]
_UTILITY = {"type": "object", "oneOf": [
    _tagged(kind, {"label": {"type": "string"}, **takes}, optional=["label"])
    for kind, takes in [
        ("identity", {}),
        ("polynomial", {"c": _NUMBER, "alpha": {"type": "number", "minimum": 1}}),
        ("expectile", {"c": _NUMBER,
                       "alpha": {"type": "number", "minimum": 0, "maximum": 0.5}}),
        ("sqrt", {})]]}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "name"],
    "dependentRequired": {"network": ["run"]},
    "properties": {
        "version": {"const": 1},
        "name": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "design": {
            "type": "object",
            "required": ["names", "bounds"],
            "default": {"names": [], "bounds": []},
            "properties": {
                "names": {"type": "array", "items": {"type": "string"}, "uniqueItems": True},
                "bounds": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
                "integerized": {"type": "array", "items": {"type": "string"}, "default": []},
            },
        },
        "simulator": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"const": "analytic"},
                "surface": {"enum": list(_SURFACE_DIM), "default": "sincos2d"},
                "noise": {"type": "number", "minimum": 0, "default": 0.0},
            },
        },
        "network": {
            "type": "object",
            "required": ["nodes", "edges", "groups", "cells", "lengths", "turning"],
            "properties": {
                "nodes": {"type": "array", "items": _INTEGER, "minItems": 1,
                          "uniqueItems": True},
                "edges": {"type": "array",
                          "items": {"type": "array", "items": {"type": "integer"},
                                    "minItems": 2, "maxItems": 2}},
                "undirected": {"type": "boolean", "default": True},
                "allow_uturn": {"type": "array", "items": _INTEGER, "default": []},
                "groups": {"type": "object",
                           "additionalProperties": {"type": "array",
                                                    "items": {"type": "integer"}}},
                "lengths": {"type": "object", "additionalProperties": _POSITIVE},
                "cells": {"type": "object", "additionalProperties": _CELL},
                "turning": {"enum": ["uniform_no_uturn"]},
                "signals": {"type": "object", "additionalProperties": _SIGNAL, "default": {}},
                "roundabout_ccw": {"type": "object", "additionalProperties": _CCW,
                                   "default": {}},
            },
        },
        "environment": {
            "type": "object",
            "default": {"kind": "none"},
            "oneOf": [
                {"required": ["kind"], "additionalProperties": False,
                 "properties": {"kind": {"const": "none"}}},
                {"required": ["kind", "copula_r", "sources"], "additionalProperties": False,
                 "properties": {
                     "kind": {"const": "ar_copula"},
                     "rho_cap_fraction": _RHO_CAP,
                     "copula_r": _NUMBER_OR_REF,
                     "sources": {"type": "array", "items": _COPULA_SOURCE,
                                 "minItems": 2, "maxItems": 2}}},
                {"required": ["kind", "sources"], "additionalProperties": False,
                 "properties": {
                     "kind": {"const": "gaussian_pairs"},
                     "rho_cap_fraction": _RHO_CAP,
                     "sources": {"type": "array", "items": _PAIR_SOURCE},
                     "constants": {"type": "array", "items": _CONSTANT, "default": []}}},
            ],
        },
        "run": {
            "type": "object",
            "required": ["steps", "initial_density"],
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "t_real": {**_POSITIVE, "default": 1.0},
                "rule": {"enum": list(InteractionRule.VARIANTS), "default": "dpf"},
                "initial_density": {"type": "object", "oneOf": [
                    {"required": ["values"], "properties": {
                        "mode": {"const": "per_route", "default": "per_route"},
                        "values": {"type": "object", "additionalProperties": _DENSITY}}},
                    {"required": ["mode", "fraction"], "properties": {
                        "mode": {"const": "max_density_fraction"},
                        "fraction": {**_DENSITY, "maximum": 1}}},
                ]},
            },
        },
        "evaluation": {
            "type": "object",
            "default": {},
            "properties": {
                "measure": {"type": "object", "default": {"kind": "avg_network_flow"},
                            "oneOf": [_tagged("avg_network_flow", {}),
                                      _tagged("throughput", {}),
                                      _tagged("avg_velocity", {"routes": {
                                          "type": "array", "items": _ROUTE}})]},
                "utility": {**_UTILITY, "default": {"kind": "identity"}},
                "utilities": {"type": "array", "items": _UTILITY, "default": []},
                "benchmarks": {"type": "object", "default": {}, "additionalProperties": {
                    "type": "object", "required": ["e", "sigma"],
                    "properties": {"e": {"type": "number", "minimum": 0}, "sigma": {
                        "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5}}}},
                "threshold": {"type": "object", "default": {}, "properties": {
                    "gamma": _NUMBER, "benchmark": {"type": "string"}}},
            },
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "default": {},
            "properties": {
                # the kernel fit needs three points
                "n_initial": {"type": "integer", "minimum": 3},
                "n_loop": {"type": "integer", "minimum": 1},
                "iterations": {"type": "integer", "minimum": 0},
                "n_min": {"type": "integer", "minimum": 2, "default": 20},
                "n_max": {"oneOf": [_INTEGER, {"type": "array", "items": _INTEGER}],
                          "default": 3000},
                "max_trials": {"type": "integer", "minimum": 1, "default": 10000},
                "n_eval": {"type": "integer", "minimum": 1, "default": 100000},
                "c1": {"type": "number", "exclusiveMinimum": 1, "default": 5.0},
                "c2_0": _NUMBER,
                "c2": {"oneOf": [_NUMBER, _NUMBERS]},
                # a point whose noise is c3 * tau or more is discarded
                "c3": {**_POSITIVE, "default": 2.0},
                "error_stop": _NUMBER,
                "delta": _DELTA,
                "tau_values": {"type": "array", "items": _POSITIVE},
                "tau_fractions": {"type": "array", "items": _POSITIVE},
                "tau_scale": {"oneOf": [_POSITIVE, {"const": "benchmark_gap"}],
                              "default": 1.0},
                "acquisition": {"enum": list(ACQUISITION_VARIANTS), "default": "absolute"},
                "kernel": {"type": "object", "additionalProperties": False, "default": {},
                           "properties": {"variant": {"enum": list(KERNEL_VARIANTS),
                                                      "default": "matern32"}}},
                "grid": {"type": "object", "additionalProperties": False, "default": {},
                         "properties": {
                    "resolution": {"type": "integer", "minimum": 1, "default": 200},
                    "axes": {"type": "array", "items": {"type": "string"},
                             "minItems": 2, "maxItems": 2, "uniqueItems": True},
                    "fixed": {"type": "object", "additionalProperties": _NUMBER,
                              "default": {}}}},
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
        **dict.fromkeys(("sigma_c", "length", "s_bar"), _POSITIVE),
        "mu_bar": _NUMBER,
        "gamma": _NUMBER,
        "delta": _DELTA,
    },
}


#: the keywords ``_validate`` implements
_KEYWORDS = frozenset({
    "type", "const", "enum", "oneOf", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "items", "minItems", "maxItems", "uniqueItems", "required",
    "dependentRequired", "properties", "additionalProperties", "default"})

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


def _json_key(value):
    """A hashable stand-in for ``value`` under JSON equality: 1 equals 1.0,
    but true does not equal 1."""
    if isinstance(value, list):
        return tuple(map(_json_key, value))
    if isinstance(value, dict):
        return frozenset((key, _json_key(item)) for key, item in value.items())
    return isinstance(value, bool), value


def _same(a, b):
    """JSON equality (see ``_json_key``)."""
    return _json_key(a) == _json_key(b)


def _none_valid(failed, value, path):
    """The errors to report for a oneOf under none of whose branches
    ``value`` is valid; ``failed`` pairs each branch with its errors.  When
    every branch fixes one key by a ``const`` (a tag such as ``kind``), they
    are the errors of the branch the value's tag selects, or of the branch
    that does not require the tag when the value has none; else, when the
    ``type`` of exactly one branch admits the value, that branch's."""
    tags = set.intersection(*({key for key, sub in branch.get("properties", {}).items()
                               if "const" in sub} for branch, _ in failed))
    if not tags or not isinstance(value, dict):
        typed = [errors for branch, errors in failed
                 if "type" in branch and _is_type(value, branch["type"])]
        return typed[0] if len(typed) == 1 else [
            (path, f"{value!r} is valid under none of the schemas")]
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


def _validate(schema, value, path, errors, fill=False):
    """``value`` checked against ``schema``: its errors are appended to
    ``errors`` as (path, message) pairs in document order.  Returns the
    value with each whole float where an integer is asked for turned into
    that int, so 8.0 runs as 8 does, and with ``fill`` each property left
    out that has a ``default`` set to it, itself checked and filled; the
    input is left as it is."""
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
            checked = _validate(branch, value, path, branch_errors, fill)
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
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} has under {schema['minItems']} items"))
        if len(value) > schema.get("maxItems", len(value)):
            errors.append((path, f"{value!r} has over {schema['maxItems']} items"))
        if schema.get("uniqueItems"):
            first = {}
            again = [item for i, item in enumerate(value)
                     if first.setdefault(_json_key(item), i) != i]
            if again:
                errors.append((path, f"{value!r} has {again[0]!r} more than once"))
        if "items" in schema:
            value = [_validate(schema["items"], item, (*path, i), errors, fill)
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
            sub = props.get(key, extra)
            if sub is False:
                errors.append((path, f"additional property {key!r} is not allowed"))
            elif sub is not True:
                item = _validate(sub, item, (*path, key), errors, fill)
            checked[key] = item
        if fill:
            for key, sub in props.items():
                if key not in checked and "default" in sub:
                    checked[key] = _validate(sub, sub["default"], (*path, key), errors, fill)
        value = checked
    return value


def _at_path(origin, path, message):
    """A ConfigError at the JSON ``path`` in ``origin``: a tuple of keys, or
    one string such as ``"network/edges/0"``."""
    if not isinstance(path, str):
        path = "/".join(map(str, path))
    return ConfigError(f"{origin}: at {path or '<root>'}: {message}")


def _validated(raw, origin, schema, fill=False):
    """``raw`` checked against ``schema``, whole floats at integer keys read
    as integers, and with ``fill`` the schema's defaults filled in; a
    violation raises a ConfigError naming the one nearest the root, the
    first in the file on a tie."""
    errors = []
    raw = _validate(schema, raw, (), errors, fill)
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


def _read_json(path):
    """The JSON document in the file ``path``, its numbers finite."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON (by line), not UTF-8, a 4300+ digit int
        raise ConfigError(f"{path}: {exc}") from None
    _check_finite(raw, path)
    return raw


def load_json(path, schema, fill=False):
    """The JSON document in the file ``path``, its numbers finite, checked
    against ``schema`` and with ``fill`` its defaults filled in (see the
    module docstring)."""
    return _validated(_read_json(path), path, schema, fill)


def load_scenario(path):
    """The scenario in the file ``path``, its numbers finite; ``Scenario``
    checks it against the schema, in the one walk that fills its defaults."""
    return Scenario(_read_json(path), origin=str(path))


def _listed(value):
    """A setting that is one number or a list of them, as a list."""
    return np.atleast_1d(value).tolist()


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
    except KeyError as exc:
        raise ConfigError(f"{context}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


class Scenario:
    """A validated scenario: parses its settings and builds the engine once;
    ``raw`` is the document as given, ``settings`` the document checked
    against ``SCENARIO_SCHEMA`` with its defaults filled in."""

    def __init__(self, raw, origin="<dict>"):
        self.raw = raw
        self.settings = cfg = _validated(raw, origin, SCENARIO_SCHEMA, fill=True)
        self.origin = origin
        self.name = cfg["name"]
        self.seed = cfg["seed"]
        self.design_names = list(cfg["design"]["names"])
        self._integerized = list(cfg["design"]["integerized"])
        self._check_design()
        self.rule = self._analytic = None
        if "simulator" in cfg:
            surface, noise = cfg["simulator"]["surface"], cfg["simulator"]["noise"]
            self._analytic = (surface, float(noise))
            if len(self.design_names) < _SURFACE_DIM[surface]:
                raise _at_path(origin, "simulator/surface",
                               f"{surface!r} reads the first {_SURFACE_DIM[surface]} design "
                               f"parameter(s), design.names has {len(self.design_names)}")
        if "network" in cfg:
            self._build_network()
            run = cfg["run"]
            self.steps = run["steps"]
            self.rule = InteractionRule(run["rule"])
            self._rho0 = self._initial_densities(run["initial_density"])
            self._parse_environment(cfg["environment"])
            self._measure = self._parse_measure(cfg["evaluation"]["measure"])
        evaluation = cfg["evaluation"]
        label = evaluation["threshold"].get("benchmark")
        if label is not None and label not in evaluation["benchmarks"]:
            raise _at_path(origin, "evaluation/threshold/benchmark", f"{label!r} names none "
                           f"of the benchmarks {list(evaluation['benchmarks'])}")
        self._parse_grid()
        self._check_learning()

    def _keyed(self, path, block, owners, noun):
        """Refuse, at its JSON path, a key of the keyed ``block`` at ``path``
        that names no ``noun``, and a key of ``owners``, each a ``noun``,
        that the block lacks: the block holds one entry per owner."""
        for key in [*block, *owners]:
            if key not in owners:
                raise _at_path(self.origin, f"{path}/{key}", f"{key!r} names no {noun}")
            if key not in block:
                raise _at_path(self.origin, path, f"has no entry for the {noun} {key!r}")

    # -- design space --------------------------------------------------

    def design_space(self):
        if "design" not in self.raw:
            raise ConfigError(f"{self.origin}: scenario has no design block")
        from .learning import DesignSpace

        return DesignSpace(tuple((float(lo), float(hi))
                                 for lo, hi in self.settings["design"]["bounds"]))

    def _check_design(self):
        """The design block's rules, each refused at its JSON path: one
        bounds pair lo < hi per name, and integerized entries that name
        design parameters."""
        names, bounds = self.design_names, self.settings["design"]["bounds"]
        if len(bounds) != len(names):
            raise _at_path(self.origin, "design/bounds",
                           f"has {len(bounds)} pairs for the {len(names)} design "
                           f"parameters {names}")
        for i, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise _at_path(self.origin, f"design/bounds/{i}",
                               f"[{lo!r}, {hi!r}] has no lower bound below its upper one")
        for i, name in enumerate(self._integerized):
            if name not in names:
                raise _at_path(self.origin, f"design/integerized/{i}",
                               f"{name!r} is not a design parameter of {names}")

    def design_params(self, k):
        names = self.design_names
        k = np.asarray(k, dtype=float).ravel()
        if len(k) != len(names):
            raise ConfigError(
                f"design vector has {len(k)} entries, expected {len(names)}: {names}")
        return dict(zip(names, k))

    def _design_value(self, value, path):
        """A literal as a float; a design reference at JSON ``path`` as the
        parameter's name."""
        if not isinstance(value, dict):
            return float(value)
        if value["design"] not in self.design_names:
            raise _at_path(self.origin, f"{path}/design", f"{value['design']!r} is not "
                           f"a design parameter of {self.design_names}")
        return value["design"]

    # -- network construction -------------------------------------------

    def _node_id(self, node, path):
        """Index of the node label ``node``, found at JSON ``path``."""
        try:
            return self._node_index[node]
        except KeyError:
            raise _at_path(self.origin, path,
                           f"{node!r} names no node of the network") from None

    def _route(self, triple, path):
        """Index of the route named by the three node labels at JSON
        ``path``; it must exist."""
        try:
            return self.network.index_of(*(self._node_index[n] for n in triple))
        except (KeyError, NetworkError):
            raise _at_path(self.origin, path,
                           f"{triple!r} is not a route of the network") from None

    def _build_network(self):
        net_cfg = self.settings["network"]
        nodes = net_cfg["nodes"]
        self.node_labels = sorted(nodes)
        self._node_index = {n: i for i, n in enumerate(self.node_labels)}
        groups = net_cfg["groups"]
        self._group_of = {}
        for gname, members in groups.items():
            for i, n in enumerate(members):
                self._node_id(n, f"network/groups/{gname}/{i}")
                if n in self._group_of:
                    raise _at_path(self.origin, f"network/groups/{gname}/{i}",
                                   f"node {n} is in the group {self._group_of[n]!r} too")
                self._group_of[n] = gname
        missing = sorted(set(nodes) - set(self._group_of))
        if missing:
            raise _at_path(self.origin, "network/groups",
                           f"has no group for the nodes {missing}")
        lengths, cells_cfg = net_cfg["lengths"], net_cfg["cells"]
        for block in ("lengths", "cells"):
            self._keyed(f"network/{block}", net_cfg[block], groups, "node group")
        for g in groups:
            # a free-flow outflow a * rho must not exceed the l_v * rho on a node
            if lengths[g] < cells_cfg[g]["a"]:
                raise _at_path(self.origin, f"network/lengths/{g}",
                               f"{lengths[g]!r} is below the free-flow factor "
                               f"a = {cells_cfg[g]['a']!r} of the group's cells")
        for block, takes in _CCW_KINDS.items():
            self._keyed(f"network/{block}", net_cfg[block],
                        [str(n) for n in self.node_labels
                         if cells_cfg[self._group_of[n]]["kind"] in takes],
                        f"{' or '.join(takes)} node")

        edges = []
        for i, edge in enumerate(net_cfg["edges"]):
            ui, vi = (self._node_id(n, f"network/edges/{i}/{j}") for j, n in enumerate(edge))
            if ui == vi:
                raise _at_path(self.origin, f"network/edges/{i}",
                               f"{edge!r} joins node {edge[0]} to itself")
            edges.append((ui, vi))
            if net_cfg["undirected"]:
                edges.append((vi, ui))
        uturn = {self._node_id(n, f"network/allow_uturn/{i}")
                 for i, n in enumerate(net_cfg["allow_uturn"])}
        self.network = TrafficNetwork(
            len(nodes), edges, {self._node_index[n]: float(lengths[self._group_of[n]])
                                for n in nodes}, allow_uturn=uturn)

        signals_cfg = net_cfg["signals"]
        # node label -> its ccw neighbours' indices, from the block its kind reads
        ccw_ids = {key: self._ccw(key, f"network/roundabout_ccw/{key}", ccw)
                   for key, ccw in net_cfg["roundabout_ccw"].items()}
        ccw_ids.update((key, self._ccw(key, f"network/signals/{key}/ccw", sig["ccw"]))
                       for key, sig in signals_cfg.items())
        self.node_cells = {}
        for n in nodes:
            # a parameter the kind does not read is None
            params = {**cells_cfg[self._group_of[n]], "ccw": ccw_ids.get(str(n))}
            self.node_cells[self._node_index[n]] = CellSpec(
                **{f.name: params.get(f.name) for f in dataclasses.fields(CellSpec)})

        self._build_signals(signals_cfg)
        self.engine = SimulationEngine(self.network, self.node_cells, self.signals)

    def _ccw(self, node, path, ccw):
        """The node indices of the ``ccw`` array at JSON ``path``, which
        lists every node adjacent to the node labelled ``node``."""
        ids = tuple(self._node_id(x, f"{path}/{i}") for i, x in enumerate(ccw))
        v = self._node_index[int(node)]
        adjacency = self.network.adjacency
        for u in np.flatnonzero(adjacency[:, v] | adjacency[v]):
            if u not in ids:
                raise _at_path(self.origin, path, f"{ccw!r} leaves out node "
                               f"{self.node_labels[u]}, adjacent to node {node}")
        return ids

    def _build_signals(self, signals_cfg):
        """One default schedule per signalized node; a design-referenced
        green or shift stands at its floor until ``_signal_programs``."""
        t_real = float(self.settings["run"]["t_real"])
        self.signals, self._signal_refs = {}, []
        for node_str, sig in signals_cfg.items():
            v = self._node_index[int(node_str)]
            fields = dict(_SIGNAL_FLOOR)
            for key in fields:
                value = sig[key]
                if not isinstance(value, dict):
                    fields[key] = int(value)
                elif value["design"] in self._integerized:
                    self._signal_refs.append((v, key, value["design"]))
                else:
                    raise _at_path(self.origin, f"network/signals/{node_str}/{key}/design",
                                   f"{value['design']!r} is not a design parameter listed "
                                   "under design.integerized")
            self.signals[v] = SignalSchedule(
                ccw=self.node_cells[v].ccw, **fields, t_real=t_real,
                a_real=float(sig["a_real"]), v_real=float(sig["v_real_kmh"]) / 3.6,
                t_safe=sig["t_safe"])

    # -- run settings, parsed at load ------------------------------------

    def _initial_densities(self, init_cfg):
        """Route densities at t = 0 from the run.initial_density block; a
        node's total stays within its rho_max."""
        rho0 = np.zeros(self.network.n_routes)
        if init_cfg["mode"] == "per_route":
            values = init_cfg["values"]
            self._keyed("run/initial_density/values", values,
                        self.settings["network"]["groups"], "node group")
            for i, r in enumerate(self.network.routes):
                rho0[i] = float(values[self._group_of[self.node_labels[r.via]]])
            for v, cell in self.node_cells.items():
                count = len(self.network.routes_through(v))
                g = self._group_of[self.node_labels[v]]
                if count and values[g] * count > cell.rho_max:
                    raise _at_path(self.origin, f"run/initial_density/values/{g}",
                                   f"{values[g]!r} on each of the {count} routes through "
                                   f"node {self.node_labels[v]} exceeds its rho_max "
                                   f"{cell.rho_max!r}")
        else:
            frac = float(init_cfg["fraction"])
            for v in range(self.network.n_nodes):
                idx = self.network.routes_through(v)
                if len(idx):
                    rho0[idx] = self.node_cells[v].rho_max * frac / len(idx)
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
        cap = float(env_cfg["rho_cap_fraction"])
        caps = {v: cell.rho_max * cap for v, cell in self.node_cells.items()}
        sources, constants = ([self._source(entry, f"environment/{key}/{j}")
                               for j, entry in enumerate(env_cfg.get(key, ()))]
                              for key in ("sources", "constants"))
        self._check_noise_scales(sources)
        self._env_routes = [s["route"] for s in sources]
        if kind == "ar_copula":
            self._env_values = {"sigma": [s["sigma"] for s in sources],
                                "r": self._design_value(env_cfg["copula_r"],
                                                        "environment/copula_r")}
            self.environment = ArCopulaEnvironment(self.network, caps, self._env_routes)
        else:
            self._env_routes += ([s["pair_route"] for s in sources if "pair_route" in s]
                                 + [c["route"] for c in constants])
            self._env_values = {key: [s[key] for s in sources] for key in ("xi", "psi")}
            self._env_values["constants"] = [c["value"] for c in constants]
            self.environment = GaussianPairsEnvironment(
                self.network, caps, [(c["route"], c["scale"]) for c in constants],
                [(s["route"], s.get("pair_route"), s["pair_sign"]) for s in sources])

    def _check_noise_scales(self, sources):
        """A source's sigma or psi that names a design parameter: the
        parameter's bounds keep it at 0 or above."""
        names, bounds = self.design_names, self.settings["design"]["bounds"]
        for j, source in enumerate(sources):
            for key in ("sigma", "psi"):
                if isinstance(source.get(key), str):
                    i = names.index(source[key])
                    if bounds[i][0] < 0:
                        raise _at_path(self.origin, f"design/bounds/{i}",
                                       f"{bounds[i]!r} lets {names[i]!r}, the {key} of "
                                       f"environment source {j}, fall below 0")

    def _source(self, entry, path):
        """A source's or constant's settings, found at JSON ``path``: routes
        as route indices, numbers as floats, design references as
        parameter names."""
        return {key: self._route(value, f"{path}/{key}") if key.endswith("route")
                else self._design_value(value, f"{path}/{key}") for key, value in entry.items()}

    def _parse_measure(self, m_cfg):
        """Factory of one replicate's performance observer."""
        kind = m_cfg["kind"]
        if kind == "avg_network_flow":
            return AvgNetworkFlow
        if kind == "throughput":
            return lambda: Throughput(self._env_routes)
        idx = [self._route(r, f"evaluation/measure/routes/{i}")
               for i, r in enumerate(m_cfg["routes"])]
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
        """A utility; a parameter its kind does not take is None."""
        return Utility(u_cfg["kind"], c=u_cfg.get("c"), alpha=u_cfg.get("alpha"))

    def utility(self):
        return self._utility(self.settings["evaluation"]["utility"])

    def calibration_utilities(self):
        """(label, Utility) pairs: the configured utility plus listed extras,
        each labelled by its kind unless it has a label."""
        return [("configured", self.utility())] + [
            (u_cfg.get("label", u_cfg["kind"]), self._utility(u_cfg))
            for u_cfg in self.settings["evaluation"]["utilities"]]

    def benchmarks(self):
        bench_cfg = self.settings["evaluation"]["benchmarks"]
        return {label: BenchmarkSpec(e=float(b["e"]), sigma_target=float(b["sigma"]))
                for label, b in bench_cfg.items()}

    def threshold(self):
        """The acceptance level gamma, explicit or benchmark-calibrated."""
        thr = self.settings["evaluation"]["threshold"]
        if "gamma" in thr:
            return float(thr["gamma"])
        if "benchmark" not in thr:
            raise _at_path(self.origin, "evaluation/threshold",
                           "has neither 'gamma' nor 'benchmark'")
        return calibrate_threshold(self.benchmarks()[thr["benchmark"]], self.utility())

    def loop_config(self):
        """The learning block as a LoopConfig; built on request, because a
        ``benchmark_gap`` tau scale calibrates thresholds.  The schedule
        is ``tau_values``, or ``tau_fractions`` times the tau scale; with
        neither ``c2`` nor ``c2_0`` given, c2_0 is 2 / scale."""
        if "learning" not in self.raw:
            raise ConfigError(f"{self.origin}: scenario has no learning block")
        l_cfg = self.settings["learning"]
        tau_key = "tau_values" if "tau_values" in l_cfg else "tau_fractions"
        for key in ("n_initial", "n_loop", "iterations", tau_key):
            if key not in l_cfg:
                raise _at_path(self.origin, "learning", f"{key!r} is a required property")
        scale = l_cfg["tau_scale"]
        if scale == "benchmark_gap":
            u = self.utility()
            gammas = [calibrate_threshold(b, u) for b in self.benchmarks().values()]
            scale = max(gammas, default=0.0) - min(gammas, default=0.0)
            if not scale > 0:
                raise _at_path(self.origin, "learning/tau_scale",
                               "the benchmark gap is 0: the benchmarks calibrate "
                               "to fewer than two thresholds")
        taus = l_cfg[tau_key]
        if tau_key == "tau_fractions":
            taus = [f * float(scale) for f in taus]
        c2, c2_0 = l_cfg.get("c2"), l_cfg.get("c2_0")
        if c2 is None and c2_0 is None:
            c2_0 = 2.0 / float(scale)  # acquisition noticeably peaked across the scale
        from .learning import LoopConfig

        return LoopConfig(
            n_initial=l_cfg["n_initial"], n_loop=l_cfg["n_loop"],
            iterations=l_cfg["iterations"], tau_schedule=tuple(float(t) for t in taus),
            n_min=l_cfg["n_min"], n_max=tuple(_listed(l_cfg["n_max"])), c1=l_cfg["c1"],
            c2_0=c2_0, c2=None if c2 is None else tuple(_listed(c2)), c3=l_cfg["c3"],
            max_trials=l_cfg["max_trials"], acquisition_variant=l_cfg["acquisition"],
            delta=l_cfg["delta"], n_eval=l_cfg["n_eval"],
            error_stop=l_cfg.get("error_stop"), kernel_variant=l_cfg["kernel"]["variant"])

    def _check_learning(self):
        """The learning rules that tie keys together, each refused at its
        JSON path: every n_max entry is at least n_min, as sequential Monte
        Carlo draws n_min replicates first; and, the iterations given, the
        tau schedule has one entry for the initial design and one per
        iteration, n_max is one bound or one per schedule entry, and a c2
        list has one increasing entry per iteration."""
        l_cfg = self.settings["learning"]
        n_min, n_max = l_cfg["n_min"], _listed(l_cfg["n_max"])
        if isinstance(l_cfg["n_max"], list):
            paths = [f"learning/n_max/{i}" for i in range(len(n_max))]
        else:  # against the default n_max, the n_min given is at fault
            paths = ["learning/n_max" if "n_max" in self.raw.get("learning", ())
                     else "learning/n_min"]
        for path, n in zip(paths, n_max):
            if n < n_min:
                raise _at_path(self.origin, path, f"n_max {n!r} is below n_min {n_min!r}")
        if "iterations" not in l_cfg:
            return  # loop_config refuses the block for the missing key
        entries = l_cfg["iterations"] + 1

        def refuse(key, rule):
            raise _at_path(self.origin, f"learning/{key}", f"{l_cfg[key]!r} {rule}")

        tau_key = "tau_values" if "tau_values" in l_cfg else "tau_fractions"
        if tau_key in l_cfg and len(l_cfg[tau_key]) < entries:
            refuse(tau_key, f"has under {entries} entries, one for the initial design "
                            "and one per iteration")
        if len(n_max) != 1 and len(n_max) < entries:
            refuse("n_max", f"is neither one bound nor one per tau schedule entry ({entries})")
        if "c2" in l_cfg:
            c2 = _listed(l_cfg["c2"])
            if len(c2) < entries - 1:
                refuse("c2", f"has under {entries - 1} entries, one per iteration")
            if any(b <= a for a, b in zip(c2, c2[1:])):
                refuse("c2", "is not increasing")

    def _parse_grid(self):
        """``grid_axes``, ``grid_resolution`` and ``grid_fixed`` of learning.grid,
        a 2-D slice of the design space: the axes, when given, are two
        distinct design parameters (else the first two), and each fixed
        value is one of a parameter off the axes (else its midpoint)."""
        grid = self.settings["learning"]["grid"]
        names = self.design_names
        self.grid_axes = axes = grid.get("axes", names[:2])
        self.grid_resolution = grid["resolution"]
        self.grid_fixed = fixed = grid["fixed"]
        bounds = dict(zip(names, self.settings["design"]["bounds"]))
        if not all(a in bounds for a in axes):
            raise _at_path(self.origin, "learning/grid/axes",
                           f"{axes!r} are not design parameters of {names}")
        for name, value in fixed.items():
            if name not in bounds or name in axes:
                raise _at_path(self.origin, f"learning/grid/fixed/{name}",
                               f"{name!r} is not a design parameter off the axes")
            lo, hi = bounds[name]
            if not lo <= value <= hi:
                raise _at_path(self.origin, f"learning/grid/fixed/{name}",
                               f"{value!r} is not in [{lo}, {hi}]")
