import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from collections.abc import Mapping
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmdesign import cli, config, gpr, learning, solvers
from ctmdesign.cli import _grid_slice, main, replicate_values
from ctmdesign.config import SCENARIO_SCHEMA, ConfigError, Scenario, load_scenario
from ctmdesign.env import replicate_rng
from ctmdesign.gpr import Kernel, QueryBlock
from ctmdesign.network import NetworkError
from ctmdesign.normal import ndtri
from reference import DensityState, total_mass


def bundled(name):
    return resources.files("ctmdesign.scenarios").joinpath(f"{name}.json")


SYNTHETIC_SMALL = Path(__file__).resolve().parents[1] / "ctmbench/scenarios/synthetic_small.json"


def load_bundled(name):
    return Scenario(json.loads(bundled(name).read_text()), origin=name)


def write_config(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# schema and loading
# ---------------------------------------------------------------------------

def test_bundled_scenarios_validate(tmp_path):
    for name in ("urban", "highway", "synthetic"):
        raw = json.loads(bundled(name).read_text())
        path = write_config(tmp_path, raw, f"{name}.json")
        scen = load_scenario(path)
        assert scen.name == name


def test_config_round_trip(tmp_path):
    raw = json.loads(bundled("urban").read_text())
    path = write_config(tmp_path, raw)
    again = json.loads(path.read_text())
    assert again == raw


def test_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "name": }')
    with pytest.raises(ConfigError, match="line 3"):
        load_scenario(path)


def test_schema_violation_reports_path(tmp_path):
    raw = json.loads(bundled("synthetic").read_text())
    raw["run"] = {"steps": 0, "initial_density": {"mode": "max_density_fraction",
                                                  "fraction": 0.5}}
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match="run/steps"):
        load_scenario(path)


def test_scenario_schema_is_valid_against_its_metaschema():
    # load_scenario validates with the schema but does not check the schema
    from jsonschema.validators import validator_for

    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


def _schema_keywords(schema):
    """The keywords of ``schema`` and of every subschema in it."""
    found = set(schema)
    subs = [schema[key] for key in ("items", "additionalProperties", "propertyNames")
            if isinstance(schema.get(key), dict)]
    subs += [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in subs:
        found |= _schema_keywords(sub)
    return found


def test_scenario_schema_uses_only_the_keywords_the_validator_implements():
    # a keyword added to the schema but not to the in-package validator
    # would be ignored without a word; any subschema-bearing keyword other
    # than those walked here shows up at its parent and fails too
    assert _schema_keywords(SCENARIO_SCHEMA) - {"$schema"} == config._KEYWORDS
    assert _schema_keywords(config.HYPERPARAMETERS_SCHEMA) <= config._KEYWORDS | {"$schema"}


def test_hyperparameters_schema_is_valid_against_its_metaschema():
    from jsonschema.validators import validator_for

    schema = config.HYPERPARAMETERS_SCHEMA
    validator_for(schema).check_schema(schema)


def _oracle(doc, schema=SCENARIO_SCHEMA):
    """Whether jsonschema accepts ``doc``, and the paths of its errors and of
    the errors in their oneOf contexts, as load_scenario writes them."""
    from jsonschema.validators import validator_for

    errors = list(validator_for(schema)(schema).iter_errors(doc))
    accepted, paths = not errors, set()
    while errors:
        error = errors.pop()
        paths.add("/".join(map(str, error.absolute_path)) or "<root>")
        errors += error.context
    return accepted, paths


#: values a mutation puts in place: each JSON type, whole and fractional
#: floats, numbers past the schema's bounds, enum values and tags known and
#: unknown, routes and sources, design references good and bad
_MUTANT_VALUES = [0, 1, -1, 2, 7, 0.0, 1.0, 8.0, 0.5, -0.5, 1.5, 1e3, True, False,
                  None, "", "bogus", "dpf", "k1", "benchmark_gap", "matern52",
                  "throughput", "highway", "none", "ar_copula", "gaussian_pairs",
                  "per_route", "max_density_fraction", [], [1], [1.0, 2.0], ["x"],
                  ["k1", "k2"], [1, 2, 3], [1.0, 2, 3.0], [[1, 2, 3]], {},
                  {"kind": "identity"}, {"e": 1, "sigma": 0.5},
                  {"route": [1, 2, 3], "sigma": 0.1},
                  {"route": [1, 2, 3], "xi": 1, "psi": 0.1, "pair_route": [3, 2, 1]},
                  {"route": [1, 2, 3], "value": {"design": "k1"}, "scale": -2.0},
                  {"design": "k1"}, {"design": 1}, {"design": "k1", "x": 0}]

#: keys a mutation adds: unknown ones, and signal node keys good and bad
_MUTANT_KEYS = ["extra", "design", "kind", "7", "-3", "01", "-0", "x1", " 5"]


def _described(schema, node, path=(), valid_only=False):
    """(path, subschema) of each node of ``node``, ``node`` included, that a
    subschema of ``schema`` describes; with ``valid_only``, only through the
    oneOf branches that jsonschema finds the node valid under."""
    yield path, schema
    for branch in schema.get("oneOf", ()):
        if not valid_only or _oracle(node, branch)[0]:
            yield from _described(branch, node, path, valid_only)
    if isinstance(node, dict):
        for key, child in node.items():
            sub = schema.get("properties", {}).get(key,
                                                   schema.get("additionalProperties"))
            if isinstance(sub, dict):
                yield from _described(sub, child, (*path, key), valid_only)
    if isinstance(node, list) and "items" in schema:
        for i, child in enumerate(node):
            yield from _described(schema["items"], child, (*path, i), valid_only)


def _target(data, doc):
    """A node of ``doc`` that the schema describes: its path and the
    subschemas that describe it.  The draw picks a subschema first, then
    one of its nodes, so each keyword is hit about as often, however few
    nodes it describes."""
    described = list(_described(SCENARIO_SCHEMA, doc))
    by_schema = {}
    for path, schema in described:
        by_schema.setdefault(id(schema), []).append(path)
    paths = data.draw(st.sampled_from(list(by_schema.values())))
    path = data.draw(st.sampled_from(paths))
    return path, [schema for p, schema in described if p == path]


def _mutate(data, doc):
    """One random edit of ``doc`` in place."""
    path, schemas = _target(data, doc)
    parent, key, node = None, None, doc
    for key in path:
        parent, node = node, node[key]
    bounds = [schema[word] for schema in schemas
              for word in ("minimum", "exclusiveMinimum", "maximum") if word in schema]
    op = data.draw(st.sampled_from(["set", "past", "drop", "add"]))

    def value(extra=()):
        return copy.deepcopy(data.draw(st.sampled_from([*_MUTANT_VALUES, *extra])))

    if parent is not None and op == "set":
        parent[key] = value()
    elif parent is not None and op == "past" and bounds:
        bound = data.draw(st.sampled_from(bounds))
        parent[key] = bound + data.draw(st.sampled_from([-1, -0.5, 0, 0.0, 0.5, 1]))
    elif op == "drop" and isinstance(node, dict) and node:
        del node[data.draw(st.sampled_from(list(node)))]
    elif op == "drop" and isinstance(node, list) and node:
        node.pop(data.draw(st.integers(0, len(node) - 1)))
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(_MUTANT_KEYS))] = value(node.values())
    elif op == "add" and isinstance(node, list):
        node.append(value(node))


def _floats(node, path=()):
    """The paths of the floats in ``node``."""
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        return {p for key in keys for p in _floats(node[key], (*path, key))}
    return {path} if isinstance(node, float) else set()


def _assert_agrees_with_jsonschema(doc, schema=SCENARIO_SCHEMA):
    """load_json's check accepts ``doc`` exactly when jsonschema does,
    reports a path jsonschema reports, and leaves ``doc`` as it is."""
    before = copy.deepcopy(doc)
    accepted, paths = _oracle(doc, schema)
    try:
        checked = config._validated(doc, "f.json", schema)
    except ConfigError as exc:
        assert not accepted, str(exc)
        assert str(exc).startswith("f.json: at ")
        assert str(exc)[len("f.json: at "):].split(": ")[0] in paths, (str(exc), paths)
        return str(exc)
    else:
        assert accepted, paths
        # the floats at integer keys, all whole, became ints; nothing else changed
        integer = {p for p, sub in _described(schema, doc, valid_only=True)
                   if sub.get("type") == "integer"}
        assert _floats(checked) == _floats(doc) - integer
        assert checked == doc and _oracle(checked, schema)[0]
    finally:
        assert json.dumps(doc) == json.dumps(before)


def test_mutations_reach_the_evaluation_and_learning_blocks():
    # the schema describes the keys of both blocks, so the random edits
    # reach inside them
    for name in ("urban", "highway", "synthetic"):
        doc = json.loads(bundled(name).read_text())
        paths = [path for path, _ in _described(SCENARIO_SCHEMA, doc)]
        for block in ("evaluation", "learning"):
            assert any(len(path) > 2 and path[0] == block for path in paths), name


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_schema_check_agrees_with_jsonschema(data):
    doc = json.loads(bundled(data.draw(st.sampled_from(
        ["urban", "highway", "synthetic"]))).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    _assert_agrees_with_jsonschema(doc)


def _set(keys, value):
    """An in-place edit that sets the value at ``keys``, or deletes it for
    ``...``."""
    def edit(raw):
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return edit


_GREEN = ("network", "signals", "14", "green")

#: one edit per keyword and per edge the random mutations rarely reach
KEYWORD_EDITS = {
    "no-version": ("synthetic", _set(("version",), ...)),
    "version-true": ("synthetic", _set(("version",), True)),
    "version-whole-float": ("synthetic", _set(("version",), 1.0)),
    "network-without-run": ("urban", _set(("run",), ...)),
    "signal-key-leading-zero": ("urban", _set(("network", "signals", "05"), {
        "ccw": [1, 2, 3, 4], "green": 5})),
    "signal-key-letter": ("urban", _set(("network", "signals", "x1"), {})),
    "signal-key-negative": ("urban", _set(("network", "signals", "-3"), {
        "ccw": [1, 2, 3, 4], "green": 5})),
    "signal-without-ccw": ("urban", _set(("network", "signals", "14", "ccw"), ...)),
    "design-ref-extra-key": ("urban", _set(_GREEN, {"design": "T_g", "x": 1})),
    "design-ref-number": ("urban", _set(_GREEN, {"design": 1})),
    "green-zero": ("urban", _set(_GREEN, 0)),
    "green-whole-float": ("urban", _set(_GREEN, 8.0)),
    "green-bool": ("urban", _set(_GREEN, True)),
    "ccw-three": ("urban", _set(("network", "signals", "14", "ccw"), [1, 2, 3])),
    "ccw-five": ("urban", _set(("network", "signals", "14", "ccw"), [1, 2, 3, 4, 5])),
    "bounds-triple": ("synthetic", _set(("design", "bounds", 0), [0, 1, 2])),
    "rho-cap-above-one": ("urban", _set(("environment", "rho_cap_fraction"), 1.5)),
    "rho-cap-zero": ("urban", _set(("environment", "rho_cap_fraction"), 0)),
    "rho-cap-nan": ("urban", _set(("environment", "rho_cap_fraction"), float("nan"))),
    "copula-r-name": ("urban", _set(("environment", "copula_r"), "r")),
    "steps-zero": ("urban", _set(("run", "steps"), 0)),
    "steps-inf": ("urban", _set(("run", "steps"), float("inf"))),
    "steps-nan": ("urban", _set(("run", "steps"), float("nan"))),
    "rule-unknown": ("urban", _set(("run", "rule"), "bogus")),
    "lengths-string": ("urban", _set(("network", "lengths", "roads"), "a")),
    "group-fraction": ("urban", _set(("network", "groups", "roads"), [1.5])),
    "surface-unknown": ("synthetic", _set(("simulator", "surface"), "bogus")),
    "noise-negative": ("synthetic", _set(("simulator", "noise"), -1)),
    "n_max-empty": ("synthetic", _set(("learning", "n_max"), [])),
    "n_max-bool": ("synthetic", _set(("learning", "n_max"), True)),
    "n_max-whole-floats": ("synthetic", _set(("learning", "n_max"), [40.0, 50])),
    "seed-string": ("synthetic", _set(("seed",), "5")),
    "tau-scale-gap": ("synthetic", _set(("learning", "tau_scale"), "benchmark_gap")),
    "tau-scale-other-string": ("synthetic", _set(("learning", "tau_scale"), "gap")),
    "c2-scalar": ("synthetic", _set(("learning", "c2"), 3)),
    "learning-unknown-key": ("synthetic", _set(("learning", "n_intial"), 10)),
    "kernel-unknown-key": ("synthetic", _set(("learning", "kernel", "nu"), 1.5)),
    "grid-resolution-whole-float": ("synthetic", _set(("learning", "grid", "resolution"),
                                                      10.0)),
    "grid-axes-three": ("synthetic", _set(("learning", "grid", "axes"), ["k1", "k2", "k1"])),
    "threshold-gamma-null": ("synthetic", _set(("evaluation", "threshold", "gamma"), None)),
    "measure-without-kind": ("urban", _set(("evaluation", "measure", "kind"), ...)),
    "benchmark-without-sigma": ("urban", _set(("evaluation", "benchmarks", "A", "sigma"),
                                              ...)),
    "utility-alpha-string": ("urban", _set(("evaluation", "utilities", 1, "alpha"), "a")),
    "cells-kind-unknown": ("urban", _set(("network", "cells", "roads", "kind"), "road")),
    "cells-without-kind": ("urban", _set(("network", "cells", "roads", "kind"), ...)),
    "cell-a-bool": ("urban", _set(("network", "cells", "roads", "a"), True)),
    "cell-a-string": ("urban", _set(("network", "cells", "roads", "a"), "0.5")),
    "cell-zeta-null": ("urban", _set(("network", "cells", "unsignalized", "zeta"), None)),
    "cell-approach-fraction-negative": ("urban", _set(
        ("network", "cells", "signalized", "approach_capacity_fraction"), -1)),
    "cell-approach-fraction-zero": ("urban", _set(
        ("network", "cells", "signalized", "approach_capacity_fraction"), 0)),
    "cell-approach-fraction-one": ("urban", _set(
        ("network", "cells", "signalized", "approach_capacity_fraction"), 1)),
    "cell-approach-fraction-above-one": ("urban", _set(
        ("network", "cells", "signalized", "approach_capacity_fraction"), 5)),
    "cell-unknown-key": ("urban", _set(("network", "cells", "roads", "speed"), 1)),
    "cell-ccw": ("urban", _set(("network", "cells", "signalized", "ccw"), [13, 20, 15, 9])),
    "root-extra-key": ("synthetic", _set(("extra",), 1)),
    "root-array": ("synthetic", lambda raw: [raw]),
    "seed-negative": ("synthetic", _set(("seed",), -1)),
    "delta-one": ("synthetic", _set(("learning", "delta"), 1)),
    "delta-whole-float-one": ("synthetic", _set(("learning", "delta"), 1.0)),
    "delta-below-one": ("synthetic", _set(("learning", "delta"), 0.999)),
    "delta-zero": ("synthetic", _set(("learning", "delta"), 0)),
    "environment-none-with-sources": ("urban", _set(("environment", "kind"), "none")),
    "environment-kind-unknown": ("urban", _set(("environment", "kind"), "bogus")),
    "environment-kind-number": ("urban", _set(("environment", "kind"), 1)),
    "environment-without-kind": ("highway", _set(("environment", "kind"), ...)),
    "copula-without-r": ("urban", _set(("environment", "copula_r"), ...)),
    "copula-without-sources": ("urban", _set(("environment", "sources"), ...)),
    "copula-one-source": ("urban", _set(("environment", "sources", 1), ...)),
    "copula-three-sources": ("urban", lambda raw: raw["environment"]["sources"].append(
        dict(raw["environment"]["sources"][0]))),
    "copula-on-pair-sources": ("highway", _set(("environment", "kind"), "ar_copula")),
    "pairs-on-copula-sources": ("urban", _set(("environment", "kind"), "gaussian_pairs")),
    "copula-source-pair-route": ("urban", _set(("environment", "sources", 0, "pair_route"),
                                               [1, 2, 3])),
    "copula-source-sigma-string": ("urban", _set(("environment", "sources", 0, "sigma"),
                                                 "a")),
    "copula-source-number": ("urban", _set(("environment", "sources", 0), 3)),
    "pair-source-without-psi": ("highway", _set(("environment", "sources", 0, "psi"), ...)),
    "pair-sign-reference": ("highway", _set(("environment", "sources", 0, "pair_sign"),
                                            {"design": "xi1"})),
    "route-two-nodes": ("highway", _set(("environment", "sources", 0, "route"), [5, 4])),
    "route-whole-floats": ("highway", _set(("environment", "sources", 0, "route"),
                                           [5.0, 4, 3.0])),
    "route-fraction": ("highway", _set(("environment", "sources", 0, "route"), [5.5, 4, 3])),
    "constant-string": ("highway", _set(("environment", "constants", 0), "x")),
    "constant-without-value": ("highway", _set(("environment", "constants", 0, "value"),
                                               ...)),
    "constant-value-string": ("highway", _set(("environment", "constants", 0, "value"),
                                              "abc")),
    "measure-route-two-nodes": ("urban", _set(("evaluation", "measure"),
                                              {"kind": "avg_velocity", "routes": [[6, 7]]})),
    "initial-density-mode-unknown": ("urban", _set(("run", "initial_density", "mode"),
                                                   "uniform")),
    "initial-density-default-mode": ("urban", _set(("run", "initial_density", "mode"), ...)),
    "initial-density-fraction-without-mode": ("highway", _set(
        ("run", "initial_density", "mode"), ...)),
    "initial-density-without-fraction": ("highway", _set(
        ("run", "initial_density", "fraction"), ...)),
    "initial-density-value-string": ("urban", _set(
        ("run", "initial_density", "values", "roads"), "a")),
    "initial-density-negative-fraction": ("highway", _set(
        ("run", "initial_density", "fraction"), -0.5)),
    "initial-density-list": ("urban", _set(("run", "initial_density"), [])),
    "initial-density-fraction-above-one": ("highway", _set(
        ("run", "initial_density", "fraction"), 1.5)),
    "copula-constants": ("urban", _set(("environment", "constants"), [])),
    "none-with-rho-cap": ("urban", lambda raw: raw.update(
        environment={"kind": "none", "rho_cap_fraction": 0.5})),
    "pairs-unknown-key": ("highway", _set(("environment", "extra"), 1)),
    "run-without-initial-density": ("urban", _set(("run", "initial_density"), ...)),
    "roundabout-ccw-number": ("highway", _set(("network", "roundabout_ccw", "1"), 3)),
    "roundabout-ccw-three": ("highway", _set(("network", "roundabout_ccw", "1"), [2, 7, 33])),
    "roundabout-ccw-key-letters": ("highway", _set(("network", "roundabout_ccw", "abc"),
                                                   [2, 7, 33, 28])),
    "n_min-one": ("synthetic", _set(("learning", "n_min"), 1)),
    "n_min-two": ("synthetic", _set(("learning", "n_min"), 2)),
    "acquisition-unknown": ("synthetic", _set(("learning", "acquisition"), "foo")),
    "acquisition-scaled": ("synthetic", _set(("learning", "acquisition"), "scaled")),
    "utility-kind-unknown": ("urban", _set(("evaluation", "utility", "kind"), "foo")),
    "utilities-kind-unknown": ("urban", _set(("evaluation", "utilities", 0, "kind"), "foo")),
}


@pytest.mark.parametrize("case", sorted(KEYWORD_EDITS))
def test_schema_check_agrees_with_jsonschema_on_each_keyword(case):
    name, edit = KEYWORD_EDITS[case]
    doc = json.loads(bundled(name).read_text())
    doc = edit(doc) or doc
    _assert_agrees_with_jsonschema(doc)


def _hyperparameters():
    return {"variant": "matern32", "sigma_c": 1.7, "length": 0.57, "mu_bar": 0.03,
            "s_bar": 0.55, "gamma": 0.0, "delta": 0.05}


@pytest.mark.parametrize("key, value", [
    ("delta", 1), ("delta", 1.0), ("delta", 0.9999), ("delta", 0), ("delta", ...),
    ("s_bar", 0.0), ("sigma_c", -1), ("length", "a"), ("mu_bar", None),
    ("gamma", True), ("gamma", ...), ("variant", "bogus"), ("extra", 1),
])
def test_hyperparameters_check_agrees_with_jsonschema(key, value):
    doc = _hyperparameters()
    _set((key,), value)(doc)
    _assert_agrees_with_jsonschema(doc, config.HYPERPARAMETERS_SCHEMA)


@pytest.mark.parametrize("name, edit, message", [
    ("urban", _set(("environment", "sources"), [3, 4]),
     "at environment/sources/0: 3 is not of type 'object'"),
    ("urban", _set(("environment", "kind"), "bogus"),
     "at environment/kind: 'bogus' is not one of ['none', 'ar_copula', 'gaussian_pairs']"),
    ("highway", _set(("environment", "kind"), "ar_copula"),
     "at environment: 'copula_r' is a required property"),
    ("urban", _set(("environment", "sources", 1), ...),
     "at environment/sources: [{'route': [6, 7, 11], 'sigma': {'design': 'sigma_a'}}] "
     "has under 2 items"),
    ("highway", _set(("run", "initial_density", "mode"), ...),
     "at run/initial_density: 'values' is a required property"),
    ("highway", _set(("run", "initial_density", "fraction"), "a"),
     "at run/initial_density/fraction: 'a' is not of type 'number'"),
], ids=["sources-numbers", "kind-unknown", "copula-kind-on-pair-sources",
        "copula-one-source", "mode-default-without-values", "fraction-string"])
def test_a_tagged_one_of_reports_the_branch_its_tag_selects(name, edit, message):
    # not "valid under none of the schemas" at the block: the kind or mode
    # picks the branch, and an unknown one is named at the tag
    doc = json.loads(bundled(name).read_text())
    edit(doc)
    assert _assert_agrees_with_jsonschema(doc) == f"f.json: {message}"


@pytest.mark.parametrize("value", [3, 3.0, 2.5, "a"])
def test_one_of_rejects_a_value_valid_under_two_branches(value):
    # no value is valid under two branches of a oneOf in the scenario
    # schema; this one overlaps, so "exactly one" is told from "any"
    from jsonschema.validators import validator_for

    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    errors = []
    config._validate(schema, value, (), errors)
    assert (not errors) == validator_for(schema)(schema).is_valid(value)
    assert bool(errors) == (value != 2.5)


@pytest.mark.parametrize("section, key, whole", [
    ("learning", "n_initial", 12.0), ("learning", "n_loop", 3.0),
    ("learning", "iterations", 1.0), ("learning", "n_min", 5.0),
    ("learning", "max_trials", 2000.0), ("learning", "n_eval", 512.0),
    ("learning", "n_max", 40.0), ("learning", "n_max", [40.0]),
    ("run", "steps", 50.0), ("learning", "grid", {"resolution": 10.0}),
], ids=["n_initial", "n_loop", "iterations", "n_min", "max_trials", "n_eval",
        "n_max", "n_max-list", "steps", "grid-resolution"])
def test_whole_float_at_integer_key_runs_as_the_integer(tmp_path, section, key, whole):
    # JSON Schema counts 8.0 as an integer; such budgets ended in a TypeError
    # traceback, and steps 50.0 in an exit 2 that blamed the environment
    if section == "learning":
        raw = json.loads(bundled("synthetic").read_text())
        raw["learning"].update({"n_initial": 12, "n_loop": 3, "iterations": 1,
                                "n_min": 5, "max_trials": 2000, "n_eval": 512,
                                "n_max": [40], "grid": {"resolution": 10}})
        command = ["estimate-levelset"]
    else:
        raw = json.loads(bundled("urban").read_text())
        command = ["simulate", "--design", "2.5,0.01,0.01,20,75", "--reps", "2"]
    artifacts = []
    for value in (json.loads(json.dumps(whole).replace(".0", "")), whole):
        raw[section][key] = value
        out = tmp_path / f"run-{len(artifacts)}"
        path = write_config(tmp_path, raw, f"scenario-{len(artifacts)}.json")
        assert exit_code([*command, "--config", str(path), "--seed", "2",
                          "--out-dir", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.name != "manifest.json"})
    assert artifacts[0] and artifacts[0] == artifacts[1]


def test_unknown_node_rejected(tmp_path):
    raw = json.loads(bundled("urban").read_text())
    raw["network"]["edges"].append([1, 99])
    with pytest.raises(ConfigError, match="99"):
        Scenario(raw)


def test_node_length_below_free_flow_factor_rejected():
    raw = json.loads(bundled("urban").read_text())
    raw["network"]["lengths"]["roads"] = 0.5
    with pytest.raises(ConfigError, match=r"node \d+ \(roads\).*free-flow"):
        Scenario(raw)


def test_design_vector_length_checked():
    scen = load_bundled("urban")
    with pytest.raises(ConfigError):
        scen.design_params([1.0, 2.0])


# ---------------------------------------------------------------------------
# bundled scenario semantics
# ---------------------------------------------------------------------------

def test_urban_network_shape():
    scen = load_bundled("urban")
    assert scen.network.n_nodes == 29
    assert scen.network.n_routes == 102
    assert scen.network.adjacency.sum() == 68  # 34 undirected edges
    rho0 = scen.initial_densities()
    assert total_mass(DensityState(rho0), scen.network) == pytest.approx(690.0)


def test_urban_replicate_runs_and_is_reproducible():
    scen = load_bundled("urban")
    k = (2.5, 0.01, 0.01, 20.0, 10.0)
    a = scen.run_replicate(k, replicate_rng(5, 0))
    b = scen.run_replicate(k, replicate_rng(5, 0))
    assert a == b
    assert 1.0 < a < 110.0


BATCH_CASES = {
    # fractional T_g and T_s: the replicates of a batch integerize to
    # different signal programs
    "urban-dpf": ("urban", (2.5, 0.01, 0.01, 20.4, 75.5), "dpf"),
    "urban-cpf": ("urban", (2.5, 0.01, 0.01, 20.4, 75.5), "cpf"),
    "urban-priority": ("urban", (2.5, 0.01, 0.01, 20.4, 75.5), "priority"),
    "urban-cooperative": ("urban", (2.5, 0.01, 0.01, 20.4, 75.5), "cooperative"),
    "highway_small": ("highway_small", (30.0, 20.0), None),
    "highway_small-cooperative": ("highway_small", (30.0, 20.0), "cooperative"),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_replicate_batches_equal_single_replicates(case):
    name, k, rule = BATCH_CASES[case]
    if name == "highway_small":
        path = Path(__file__).resolve().parents[1] / "ctmbench/scenarios/highway_small.json"
        scen = load_scenario(path)
    else:
        scen = load_bundled(name)
    rule = solvers.InteractionRule(rule) if rule else None
    singles = [scen.run_replicate(k, replicate_rng(31, 0, i), rule=rule)
               for i in range(16)]
    for size in (1, 2, 7, 16):
        batch = scen.run_replicate(
            k, [replicate_rng(31, 0, i) for i in range(size)], rule=rule)
        assert batch == singles[:size]
    # one generator listed B times is B consecutive one-generator calls
    shared, consecutive = replicate_rng(31, 1), replicate_rng(31, 1)
    assert (scen.run_replicate(k, [shared] * 7, rule=rule)
            == [scen.run_replicate(k, consecutive, rule=rule) for _ in range(7)])
    assert scen.run_replicate(k, [], rule=rule) == []


MIXED_CASES = {
    "urban-dpf": ("urban", "dpf"),
    "urban-cooperative": ("urban", "cooperative"),
    "highway_small": ("highway_small", None),
}


def _mixed_designs(name, size):
    """``size`` designs that differ in every varied parameter, row by row."""
    rng = np.random.default_rng(47)
    if name == "highway_small":
        return rng.uniform(1.0, 61.0, (size, 2))
    # r, and fractional T_g and T_s that integerize to different programs
    return np.column_stack([rng.uniform(-50, 50, size), np.full(size, 0.01),
                            np.full(size, 0.01), rng.uniform(5, 60, size),
                            rng.uniform(0, 100, size)])


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_mixed_design_batches_equal_single_replicates(case):
    name, rule = MIXED_CASES[case]
    if name == "highway_small":
        path = Path(__file__).resolve().parents[1] / "ctmbench/scenarios/highway_small.json"
        scen = load_scenario(path)
    else:
        scen = load_bundled(name)
    rule = solvers.InteractionRule(rule) if rule else None
    ks = _mixed_designs(name, 70)
    singles = [scen.run_replicate(k, replicate_rng(53, 0, i), rule=rule)
               for i, k in enumerate(ks)]
    # 70 rows span two stepped batches of at most 64
    for size in (1, 2, 7, 70):
        batch = scen.run_replicate(
            ks[:size], [replicate_rng(53, 0, i) for i in range(size)], rule=rule)
        assert batch == singles[:size]


class _Unreadable(Mapping):
    """Stands in for a scenario's raw JSON: any read fails the test."""

    def __getitem__(self, key):
        raise AssertionError(f"raw JSON read at {key!r}")

    def __iter__(self):
        raise AssertionError("raw JSON iterated")

    def __len__(self):
        raise AssertionError("raw JSON sized")


@pytest.mark.parametrize("name, k", [
    ("urban", (2.5, 0.01, 0.01, 20.4, 75.5)),
    ("highway_small", (30.0, 20.0)),
    ("synthetic_small", (0.2, 0.7)),
])
def test_replicate_path_reads_no_raw_json(name, k):
    # every setting a replicate needs is parsed when the scenario loads
    root = Path(__file__).resolve().parents[1]
    path = bundled(name) if name == "urban" else root / f"ctmbench/scenarios/{name}.json"
    guarded, plain = load_scenario(path), load_scenario(path)
    guarded.raw = _Unreadable()
    for key in ((0,), (1, 0)):
        assert (guarded.run_replicate(k, replicate_rng(3, *key))
                == plain.run_replicate(k, replicate_rng(3, *key)))
    assert (guarded.run_replicate(k, [replicate_rng(3, 2, i) for i in range(3)])
            == plain.run_replicate(k, [replicate_rng(3, 2, i) for i in range(3)]))


@pytest.mark.parametrize("name, k", [
    ("urban", (2.5, 0.01, 0.01, 20.4, 75.5)),
    ("highway", (20.0, 40.0)),
])
def test_replicates_resolve_no_route(monkeypatch, name, k):
    # the environment's routes are resolved once, when the scenario loads
    from ctmdesign.network import TrafficNetwork

    scenario = load_bundled(name)
    calls = []
    index_of = TrafficNetwork.index_of
    monkeypatch.setattr(TrafficNetwork, "index_of",
                        lambda self, *route: calls.append(route) or index_of(self, *route))
    values = scenario.run_replicate(k, [replicate_rng(4, i) for i in range(16)])
    assert len(values) == 16 and calls == []
    load_bundled(name)
    assert calls    # loading resolves the routes through the counted method


def test_urban_shift_periodicity_bit_identical():
    # identical seed, configurations (T_g, T_s) and (T_g, T_s + 2 T_g)
    scen = load_bundled("urban")
    trajs = []
    for ts in (10.0, 10.0 + 2 * 20.0):
        rho_log = []

        def grab(t, rho_before, record):
            if t % 100 == 0:
                rho_log.append(rho_before.copy())

        scen.run_replicate((2.5, 0.01, 0.01, 20.0, ts), replicate_rng(77, 3),
                           extra_observers=(grab,))
        trajs.append(np.array(rho_log))
    assert np.array_equal(trajs[0], trajs[1])


def test_highway_initial_fill_fraction():
    scen = load_bundled("highway")
    rho0 = scen.initial_densities()
    total = rho0.sum()
    cap = sum(scen.node_cells[v].rho_max for v in range(scen.network.n_nodes))
    assert total / cap == pytest.approx(0.05)
    # per-route values follow rho_max / route count
    v23 = scen._node_id(23)
    idx = scen.network.routes_through(v23)
    assert len(idx) == 12
    assert rho0[idx] == pytest.approx(np.full(12, 30 * 0.05 / 12))


def test_highway_replicate_and_throughput_bounds():
    scen = load_bundled("highway")
    q = scen.run_replicate((10.0, 10.0), replicate_rng(9, 0))
    assert 0.0 <= q <= 1.0


def test_highway_velocity_measure_config(tmp_path):
    raw = json.loads(bundled("highway").read_text())
    raw["evaluation"]["measure"] = {"kind": "avg_velocity",
                                    "routes": [[12, 18, 19], [1, 33, 32]]}
    raw["design"]["bounds"] = [[1, 31], [1, 31]]
    scen = Scenario(raw)
    q = scen.run_replicate((5.0, 5.0), replicate_rng(10, 0))
    assert 0.0 <= q <= 2.0 + 1e-9


def test_threshold_from_benchmark_and_explicit():
    urban = load_bundled("urban")
    assert urban.threshold() == pytest.approx(60.0, rel=1e-9)
    synth = load_bundled("synthetic")
    assert synth.threshold() == 0.0


def test_loop_config_from_urban_block():
    scen = load_bundled("urban")
    cfg = scen.loop_config()
    assert cfg.n_initial == 150 and cfg.n_loop == 50 and cfg.iterations == 7
    # tau schedule scales with the benchmark gap gamma_A - gamma_C = 10
    assert cfg.tau_schedule[0] == pytest.approx(0.05 * 10.0)
    assert cfg.tau_schedule[1] == pytest.approx(0.10 * 10.0)
    assert cfg.n_max_at(0) == 500 and cfg.n_max_at(7) == 3000
    assert cfg.c2_at(1) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def synthetic_config(tmp_path, **learning_overrides):
    raw = json.loads(bundled("synthetic").read_text())
    raw["learning"].update({"n_initial": 25, "n_loop": 10, "iterations": 2,
                            "n_eval": 5000, **learning_overrides})
    return write_config(tmp_path, raw)


def test_cli_simulate_and_outputs(tmp_path):
    path = synthetic_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(path), "--design", "0.2,0.3",
               "--reps", "8", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "replicates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    # reproducibility: byte-identical outputs on a second run
    before = (out / "replicates.csv").read_bytes()
    rc = main(["simulate", "--config", str(path), "--design", "0.2,0.3",
               "--reps", "8", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "replicates.csv").read_bytes() == before


@pytest.mark.parametrize("rule", [None, "cooperative"])
def test_cli_simulate_manifest_records_the_rule_that_ran(tmp_path, rule):
    # without run.rule the scenario steps dpf
    raw = json.loads(bundled("urban").read_text())
    del raw["run"]["rule"]
    if rule:
        raw["run"]["rule"] = rule
    path = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--design", "2.5,0.01,0.01,20,75",
                 "--reps", "1", "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["rule"] == (rule or "dpf")


def test_cli_simulate_worker_pool_deterministic(tmp_path):
    path = synthetic_config(tmp_path)
    scen = load_scenario(path)
    seq = replicate_values(scen, np.array([0.1, 0.9]), 12, 7, workers=1)
    par = replicate_values(scen, np.array([0.1, 0.9]), 12, 7, workers=3)
    assert np.array_equal(seq, par)


def test_cli_calibrate_thresholds(tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--config", str(bundled("urban")),
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "thresholds.csv") as fh:
        rows = {(r["utility"], r["benchmark"]): r for r in csv.DictReader(fh)}
    for label, e in (("A", 60.0), ("B", 55.0), ("C", 50.0)):
        assert float(rows[("configured", label)]["gamma"]) == pytest.approx(e)
    assert float(rows[("configured", "A")]["beta"]) == pytest.approx(12.0)
    assert float(rows[("configured", "B")]["beta"]) == pytest.approx(5.0555555, abs=1e-6)
    assert float(rows[("configured", "C")]["beta"]) == pytest.approx(2.625)
    # sqrt thresholds increase with the benchmark mean
    sq = [float(rows[("sqrt", lbl)]["gamma"]) for lbl in ("C", "B", "A")]
    assert sq[0] < sq[1] < sq[2]


def test_cli_estimate_levelset_and_export_grid(tmp_path):
    # the run rasterizes at the export's resolution, so the two grids can
    # be compared point by point
    grid_cfg = json.loads(bundled("synthetic").read_text())["learning"]["grid"]
    path = synthetic_config(tmp_path, grid={**grid_cfg, "resolution": 40})
    out = tmp_path / "run"
    rc = main(["estimate-levelset", "--config", str(path), "--seed", "21",
               "--out-dir", str(out)])
    assert rc == 0
    errors = list(csv.DictReader(open(out / "errors.csv")))
    assert len(errors) == 3  # initialization + 2 iterations
    assert (out / "grid_0.csv").exists() and (out / "grid_2.csv").exists()
    dataset = list(csv.DictReader(open(out / "dataset.csv")))
    assert len(dataset) >= 25
    hp = json.loads((out / "hyperparameters.json").read_text())
    assert hp["variant"] == "matern32"

    exp = tmp_path / "export"
    rc = main(["export-grid", "--config", str(path), "--run-dir", str(out),
               "--out-dir", str(exp), "--resolution", "40"])
    assert rc == 0
    grid = list(csv.DictReader(open(exp / "grid.csv")))
    assert len(grid) == 1600
    # exported membership matches the persisted posterior's final grid
    final = {(r["k1"], r["k2"]): r["member"]
             for r in csv.DictReader(open(out / "grid_2.csv"))}
    assert len(final) == 1600
    assert {(r["k1"], r["k2"]): r["member"] for r in grid} == final


def test_cli_idle_iterations_reuse_the_previous_fit(tmp_path, monkeypatch):
    fits = []
    real = learning.posterior
    monkeypatch.setattr(learning, "posterior",
                        lambda *args: fits.append(args) or real(*args))
    # c1 * tau exceeds the posterior std everywhere: no point is accepted
    path = synthetic_config(tmp_path, tau_values=[0.01, 100.0, 100.0],
                            max_trials=300)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "5",
                 "--out-dir", str(out)]) == 0
    assert len(fits) == 1
    grids = [(out / f"grid_{i}.csv").read_bytes() for i in range(3)]
    assert grids[1] == grids[0] and grids[2] == grids[0]
    errors = list(csv.DictReader(open(out / "errors.csv")))
    assert [row["iteration"] for row in errors] == ["0", "1", "2"]
    assert len({row["e_hat"] for row in errors}) == 1


def test_cli_queries_each_sobol_and_grid_point_once_per_estimate(
        tmp_path, monkeypatch):
    # the bounds of all fits come from one pass over the Sobol points, and
    # the grids from one pass over the grid: each point's kernel column is
    # built once, against the last fit's data, and each fit computes the
    # mean at a point at most once
    built = []  # (rows, query points) of each kernel block built

    def matrix(self, x1, x2, real=Kernel.matrix):
        built.append((len(x1), [tuple(q) for q in np.asarray(x2)]))
        return real(self, x1, x2)

    means = []  # (posterior, query points) of each mean read from a block

    def mean(self, post, idx=None, real=QueryBlock.mean):
        q = self.queries if idx is None else self.queries[idx]
        means.append((post, [tuple(p) for p in q]))
        return real(self, post, idx)

    monkeypatch.setattr(Kernel, "matrix", matrix)
    monkeypatch.setattr(QueryBlock, "mean", mean)
    raw = json.loads(synthetic_config(tmp_path).read_text())
    raw["learning"]["grid"]["resolution"] = 30
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "21",
                 "--out-dir", str(out)]) == 0
    scenario = load_scenario(path)
    space = scenario.design_space()
    sobol = set(map(tuple, learning.sobol_points(space, 5000)))
    grid = set(map(tuple, _grid_slice(scenario, space)[0]))
    kept = sum(1 for row in csv.DictReader(open(out / "dataset.csv"))
               if row["discarded"] == "0")
    manifest = json.loads((out / "manifest.json").read_text())
    fits = len(manifest["nikodym_mean_points"])
    assert fits >= 2
    for points, size in ((sobol, 5000), (grid, 900)):
        # a block's packs repeat its points; no other point is built twice
        blocks = [(rows, set(q)) for rows, q in built if set(q) <= points]
        assert {rows for rows, _ in blocks} == {kept}
        assert sum(len(q) for _, q in blocks) == len(set().union(*(q for _, q in blocks)))
        assert len(set().union(*(q for _, q in blocks))) == size
        per_fit = {}
        for post, q in means:
            if set(q) <= points:
                per_fit.setdefault(id(post), []).extend(q)
        assert len(per_fit) == fits
        assert all(len(set(q)) == len(q) for q in per_fit.values())
        if points is grid:
            assert all(len(q) == size for q in per_fit.values())
        else:
            assert sorted(map(len, per_fit.values())) == sorted(manifest["nikodym_mean_points"])
    # rejection sampling builds its 256-row candidate batches
    assert {len(q) for _, q in built if not set(q) <= sobol | grid} == {256}


def test_cli_benchmark_compare(tmp_path):
    path = synthetic_config(tmp_path)
    out = tmp_path / "cmp"
    rc = main(["benchmark-compare", "--config", str(path),
               "--designs", "0.2,0.2;0.4,0.4", "--reps", "5",
               "--out-dir", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "comparison.csv")))
    assert len(rows) == 4  # two designs x two rules


def test_cli_single_replicate_summaries(tmp_path, capsys):
    path = synthetic_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--design", "0.2,0.2",
                 "--reps", "1", "--out-dir", str(tmp_path / "sim")]) == 0
    summary = list(csv.DictReader(open(tmp_path / "sim" / "summary.csv")))
    assert summary[0]["std_error"] == "0"
    assert main(["benchmark-compare", "--config", str(path),
                 "--designs", "0.2,0.2", "--reps", "1",
                 "--out-dir", str(tmp_path / "cmp")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "cmp" / "comparison.csv")))
    assert [row["std_error"] for row in rows] == ["0", "0"]
    assert "k=[0.2, 0.2] dpf" in capsys.readouterr().out


def exit_code(argv):
    """main's return value, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["simulate", "benchmark-compare"])
@pytest.mark.parametrize("reps", ["0", "-3"])
def test_cli_reps_below_one_exit_2(tmp_path, capsys, command, reps):
    path = synthetic_config(tmp_path)
    design = ["--design", "0.2,0.2"] if command == "simulate" else [
        "--designs", "0.2,0.2"]
    rc = exit_code([command, "--config", str(path), *design, "--reps", reps,
                    "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--reps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "benchmark-compare",
                                     "estimate-levelset"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    path = synthetic_config(tmp_path)
    extra = {"simulate": ["--design", "0.2,0.2"],
             "benchmark-compare": ["--designs", "0.2,0.2"]}.get(command, [])
    rc = exit_code([command, "--config", str(path), *extra, "--workers", workers,
                    "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--workers" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["calibrate", "export-grid"])
@pytest.mark.parametrize("flag", ["--seed", "--workers"])
def test_cli_commands_that_draw_no_replicates_refuse_seed_and_workers(tmp_path, capsys,
                                                                     command, flag):
    # both commands took both flags and read neither; calibrate wrote the
    # scenario's seed to its manifest whatever --seed said
    extra = ["--run-dir", str(tmp_path)] if command == "export-grid" else []
    rc = exit_code([command, "--config", str(bundled("urban")), *extra, flag, "1",
                    "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_counts(tmp_path, **learning):
    """manifest.json and dataset.csv rows of a small synthetic run."""
    path = synthetic_config(tmp_path, **learning)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "6",
                 "--out-dir", str(out)]) == 0
    with open(out / "dataset.csv") as fh:
        rows = list(csv.DictReader(fh))
    return json.loads((out / "manifest.json").read_text()), rows


def test_manifest_replicate_counts_without_continuation(tmp_path):
    manifest, rows = _run_counts(tmp_path, n_min=8, n_max=[8])
    used = sum(int(row["n"]) for row in rows)
    assert used == 8 * len(rows)
    assert manifest["replicates_used"] == manifest["replicates_drawn"] == used
    assert manifest["target_stops"] + manifest["cap_stops"] == len(rows)


def test_manifest_replicate_counts_agree_with_the_dataset(tmp_path):
    manifest, rows = _run_counts(tmp_path, n_min=4, n_max=[200],
                                 tau_values=[0.03] * 3)
    n = [int(row["n"]) for row in rows]
    continued = sum(1 for x in n if x > 4)
    assert manifest["replicates_used"] == sum(n)
    assert sum(n) <= manifest["replicates_drawn"] <= sum(n) + 63 * continued
    assert manifest["replicates_drawn"] > sum(n)    # some chunk overshot a stop
    assert manifest["cap_stops"] == sum(1 for x in n if x == 200)
    assert manifest["target_stops"] + manifest["cap_stops"] == len(rows)


def test_manifest_counts_the_solved_variances(tmp_path):
    manifest, rows = _run_counts(tmp_path, n_min=8, n_max=[8], iterations=3)
    refits = sorted({int(row["iteration"]) for row in rows} - {0})
    # one entry per fit: the first solves every Sobol point, later fits only
    # those that can still lie in the band
    solved = manifest["nikodym_variance_points"]
    assert len(solved) == 1 + len(refits) >= 2
    assert solved[0] == 5000 and all(0 < v < 5000 for v in solved[1:])
    # and the Sobol points whose mean was computed, a superset of those
    means = manifest["nikodym_mean_points"]
    assert len(means) == len(solved) and means[0] == 5000
    assert all(v <= m < 5000 for v, m in zip(solved[1:], means[1:]))
    # one entry per rejection sampling: every accepted candidate needed one
    candidates = manifest["rejection_std_candidates"]
    assert len(candidates) == 3
    for i, count in enumerate(candidates, start=1):
        assert count >= sum(1 for row in rows if int(row["iteration"]) == i)
        assert isinstance(count, int)


@pytest.mark.parametrize("error_stop", [None, 1e-9])
def test_manifest_times_each_phase(tmp_path, error_stop):
    # one perf_counter pair per phase: the seconds of the loop's phases and
    # of the artifacts, which together take part of the run's wall time
    learning = {"iterations": 3} if error_stop is None else {"iterations": 3,
                                                            "error_stop": error_stop}
    manifest, _ = _run_counts(tmp_path, **learning)
    phases = manifest["phase_seconds"]
    assert set(phases) == {"smc", "fit", "rejection", "bound_pass", "grid_pass", "persist"}
    assert all(isinstance(value, float) and value >= 0 for value in phases.values())
    assert sum(phases.values()) <= manifest["wall_clock_s"]


def test_cli_exit_codes(tmp_path, monkeypatch):
    bad = tmp_path / "missing.json"
    bad.write_text('{"version": 1}')
    rc = main(["simulate", "--config", str(bad), "--design", "0",
               "--reps", "2", "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    rc = main(["calibrate", "--config", str(broken),
               "--out-dir", str(tmp_path / "y")])
    assert rc == 2
    # a NetworkError while stepping is a numerical failure
    def clamp_fails(rho):
        raise NetworkError("density below tolerance")

    monkeypatch.setattr(solvers, "clamp_densities", clamp_fails)
    rc = main(["simulate", "--config", str(bundled("urban")), "--design",
               "2.5,0.01,0.01,20,75", "--reps", "1",
               "--out-dir", str(tmp_path / "z")])
    assert rc == 3


URBAN_SOURCE = {"route": [6, 7, 11], "sigma": {"design": "sigma_a"}}


@pytest.mark.parametrize("name, block, key, value, named", [
    ("synthetic", "learning", "tau_values",
     [0.01, -0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01], "learning"),
    ("synthetic", "design", "bounds", [[1.0, 0.0], [0.0, 1.0]], "design"),
    ("synthetic", "learning", "n_eval", 0, "learning"),
    ("urban", "run", "initial_density",
     {"mode": "per_route", "values": {"roads": 5, "unsignalized": 1}},
     "run.initial_density"),
    ("urban", "run", "initial_density", {"mode": "max_density_fraction"},
     "at run/initial_density: 'fraction' is a required property"),
    ("urban", "run", "initial_density", {"mode": "uniform"},
     "at run/initial_density/mode: 'uniform' is not one of"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {"route": [24, 23, 999], "sigma": {"design": "sigma_b"}}],
     "environment.sources"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {"route": [24, 23, 24], "sigma": {"design": "sigma_b"}}],
     "environment.sources"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {"route": [24, 23, 19], "sigma": {"design": "zz"}}],
     "environment.sources"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {"route": [24, 23, 19], "sigmaa": {"design": "sigma_b"}}],
     "at environment/sources/1: 'sigma' is a required property"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {**URBAN_SOURCE, "value": 5}],
     "at environment/sources/1: additional property 'value'"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {**URBAN_SOURCE, "pair_sign": 1.0}],
     "at environment/sources/1: additional property 'pair_sign'"),
    ("urban", "environment", "sources",
     [URBAN_SOURCE, {"route": [24, 23, 19]}],
     "at environment/sources/1: 'sigma' is a required property"),
    ("urban", "environment", "sources", [URBAN_SOURCE],
     "at environment/sources: "),
    ("highway", "environment", "sources",
     [{"route": [5, 4, 3], "xi": {"design": "xi1"}, "psi": 0.1,
       "pair_route": [14, 15, 16], "pair_sign": {"design": "xi1"}}],
     "at environment/sources/0/pair_sign: "),
    ("urban", "evaluation", "measure",
     {"kind": "avg_velocity", "routes": [[6, 7, 999]]}, "evaluation.measure"),
    ("urban", "evaluation", "measure", {"kind": "queue"}, "at evaluation/measure/kind"),
], ids=["negative-tau", "reversed-bounds", "zero-n_eval",
        "initial-density-missing-group", "initial-density-without-fraction",
        "initial-density-unknown-mode", "source-unknown-node", "source-not-a-route",
        "source-unknown-design-parameter", "source-misspelled-key",
        "source-internal-state-key", "source-key-of-the-other-kind",
        "source-missing-key", "copula-one-source", "pair-sign-design-reference",
        "measure-unknown-node", "measure-unknown-kind"])
def test_cli_invalid_values_exit_2_naming_the_file(tmp_path, capsys, name, block,
                                                   key, value, named):
    raw = json.loads(bundled(name).read_text())
    raw[block][key] = value
    path = write_config(tmp_path, raw)
    rc = main(["estimate-levelset", "--config", str(path),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {named}" in err and "Traceback" not in err
    assert err.count(str(path)) == 1
    assert not (tmp_path / "run" / "dataset.csv").exists()  # rejected before the loop



def _signal_entry(node, key, value):
    def spoil(raw):
        raw["network"]["signals"][node][key] = value
    return spoil


def _without_signal_field(key):
    def spoil(raw):
        del raw["network"]["signals"]["14"][key]
    return spoil


def _signal_key_x(raw):
    signals = raw["network"]["signals"]
    signals["x"] = signals.pop("14")


def _tg_not_integerized(raw):
    raw["design"]["integerized"] = ["T_s"]


def _signal_on_node(node):
    def spoil(raw):
        signals = raw["network"]["signals"]
        signals[node] = dict(signals["14"])
    return spoil


@pytest.mark.parametrize("spoil, node", [
    (_without_signal_field("green"), "14"),
    (_without_signal_field("ccw"), "14"),
    (_signal_key_x, "x"),
    (_signal_on_node("014"), "014"),
    (_signal_entry("14", "t_safe", "a"), "14"),
    (_signal_entry("14", "a_real", "fast"), "14"),
    (_signal_entry("14", "green", 20.7), "14"),
    (_signal_entry("14", "green", 0), "14"),
    (_signal_entry("14", "shift", -1), "14"),
    (_signal_entry("14", "shift", 2.5), "14"),
    (_signal_entry("14", "t_safe", 1.5), "14"),
    (_signal_entry("14", "a_real", 0), "14"),
    (_signal_entry("14", "v_real_kmh", -50), "14"),
    (_tg_not_integerized, "14"),
    (_signal_on_node("3"), "3"),
    (_signal_on_node("99"), "99"),
], ids=["missing-green", "missing-ccw", "node-key-x", "node-key-014",
        "non-numeric-t_safe", "non-numeric-a_real", "fractional-green",
        "zero-green", "negative-shift", "fractional-shift", "fractional-t_safe",
        "zero-a_real", "negative-v_real", "T_g-not-integerized",
        "simplified-node", "unknown-node"])
def test_cli_invalid_signals_exit_2_naming_file_and_node(tmp_path, capsys,
                                                         spoil, node):
    raw = json.loads(bundled("urban").read_text())
    spoil(raw)
    path = write_config(tmp_path, raw)
    rc = main(["simulate", "--config", str(path), "--design", "2.5,0.01,0.01,20,75",
               "--reps", "1", "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(path) in err and "Traceback" not in err
    assert (f"signals/{node}" in err or f"signals: '{node}'" in err
            or f"node {node}" in err)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A small estimate-levelset run directory and its config."""
    tmp_path = tmp_path_factory.mktemp("finished")
    path = synthetic_config(tmp_path, iterations=0)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "4",
                 "--out-dir", str(out)]) == 0
    return path, out


def test_cli_export_grid_reproduces_the_last_grid_byte_for_byte(tmp_path, finished_run):
    # dataset.csv holds every float at full precision, so the rebuilt
    # posterior conditions on the loop's data and picks the loop's jitter
    path, out = finished_run
    assert main(["export-grid", "--config", str(path), "--run-dir", str(out),
                 "--out-dir", str(tmp_path / "export")]) == 0
    assert (tmp_path / "export" / "grid.csv").read_bytes() == (out / "grid_0.csv").read_bytes()


def _export_is_the_last_grid(tmp_path, path, out):
    """Whether export-grid rebuilds the run's last grid byte for byte."""
    last = max(int(grid.stem.split("_")[1]) for grid in out.glob("grid_*.csv"))
    assert main(["export-grid", "--config", str(path), "--run-dir", str(out),
                 "--out-dir", str(tmp_path / "export")]) == 0
    return (tmp_path / "export" / "grid.csv").read_bytes() == (
        out / f"grid_{last}.csv").read_bytes()


def test_cli_export_grid_replays_the_loops_factor_chain(tmp_path):
    # each refit extends the factor of the fit before it, and export-grid
    # replays that chain from dataset.csv's iteration column
    path = synthetic_config(tmp_path)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "4",
                 "--out-dir", str(out)]) == 0
    born = [row["iteration"] for row in csv.DictReader(open(out / "dataset.csv"))]
    assert {"1", "2"} <= set(born)  # both loop iterations added points
    assert _export_is_the_last_grid(tmp_path, path, out)


def test_cli_export_grid_replays_a_chain_with_a_jittered_fit(tmp_path, monkeypatch):
    # every fit after the first needs the jitter 1e-6: the first of them is
    # factored afresh and the next extends it, in the loop and in export-grid
    jitters = gpr._JITTERS

    def jitter_after_the_first_fit(module):
        real, fits = module.posterior, []

        def fit(*args):
            monkeypatch.setattr(gpr, "_JITTERS", (1e-6,) if fits else jitters)
            fits.append(real(*args))
            return fits[-1]

        monkeypatch.setattr(module, "posterior", fit)
        return fits

    loop, export = jitter_after_the_first_fit(learning), jitter_after_the_first_fit(cli)
    path = synthetic_config(tmp_path)
    out = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "4",
                 "--out-dir", str(out)]) == 0
    assert [post.jitter for post in loop] == [0.0, 1e-6, 1e-6]
    n1 = len(loop[1].dataset)
    assert np.array_equal(loop[2]._chol[:n1, :n1], loop[1]._chol)  # extended
    assert _export_is_the_last_grid(tmp_path, path, out)
    assert [post.jitter for post in export] == [0.0, 1e-6, 1e-6]


def test_grid_rows_are_formatted_as_csv_writes_them(tmp_path):
    # the prefixes come from each axis's strings and a block's rows from one
    # format operation; the bytes are those of csv.writer and _fmt per row
    path = synthetic_config(tmp_path)
    scenario = load_scenario(path)
    space = scenario.design_space()
    grid = pts, axes, prefixes = _grid_slice(scenario, space, resolution=37)
    ia, ib = (scenario.design_names.index(axis) for axis in axes)
    assert prefixes == ["{:.12g},{:.12g},".format(p[ia], p[ib]) for p in pts.tolist()]
    rng = np.random.default_rng(2)
    x = rng.random((30, 2))
    post = gpr.posterior(gpr.GprDataset(x, np.sin(3.0 * x[:, 0]), np.full(30, 0.01)),
                         Kernel("matern32", 1.0, 0.3))
    cli._write_grid([tmp_path / "grid.csv"], grid, [post], 0.1, 0.05)
    m, s = post.mean_std(pts)
    lower, upper = learning.band(m, s, ndtri(1.0 - 0.05 / 2.0))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axes[0], axes[1], "mean", "std", "member", "inner", "outer"])
        writer.writerows((cli._fmt(p[ia]), cli._fmt(p[ib]), cli._fmt(mi), cli._fmt(si),
                          int(mi >= 0.1), int(lo >= 0.1), int(up >= 0.1))
                         for p, mi, si, lo, up in zip(pts, m, s, lower, upper))
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _without_dataset(run):
    (run / "dataset.csv").unlink()
    return "dataset.csv", []


def _zero_delta(run):
    hp_file = run / "hyperparameters.json"
    hp = json.loads(hp_file.read_text())
    hp_file.write_text(json.dumps({**hp, "delta": 0.0}))
    return "hyperparameters.json", []


def _zero_resolution(run):
    return "--resolution", ["--resolution", "0"]


def _truncated_hyperparameters(run):
    hp_file = run / "hyperparameters.json"
    hp_file.write_text(hp_file.read_text()[:25])
    return "hyperparameters.json", []


def _without_hyperparameter(key):
    def spoil(run):
        hp_file = run / "hyperparameters.json"
        hp = json.loads(hp_file.read_text())
        del hp[key]
        hp_file.write_text(json.dumps(hp))
        return "hyperparameters.json", []
    return spoil


def _non_numeric_dataset_cell(run):
    data_file = run / "dataset.csv"
    lines = data_file.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[1].rstrip("\r\n").split(",")
    cells[header.index("mu_hat")] = "abc"
    lines[1] = ",".join(cells) + "\r\n"
    data_file.write_text("".join(lines))
    return "dataset.csv", []


@pytest.mark.parametrize("spoil", [_without_dataset, _zero_delta,
                                   _zero_resolution, _truncated_hyperparameters,
                                   _without_hyperparameter("mu_bar"),
                                   _without_hyperparameter("gamma"),
                                   _non_numeric_dataset_cell],
                         ids=["missing-file", "delta-0", "resolution-0",
                              "truncated-hyperparameters", "missing-mu_bar",
                              "missing-gamma", "non-numeric-cell"])
def test_cli_export_grid_bad_inputs_exit_2(tmp_path, capsys, finished_run,
                                           spoil):
    path, out = finished_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    named, extra = spoil(run)
    capsys.readouterr()
    rc = exit_code(["export-grid", "--config", str(path), "--run-dir", str(run),
                    "--out-dir", str(tmp_path / "export"), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "export" / "grid.csv").exists()


def _dataset_cells(column, value, rows=slice(0, 1)):
    """A spoiler that sets ``column`` of the given data rows of dataset.csv."""
    def spoil(run):
        with open(run / "dataset.csv", newline="") as fh:
            table = list(csv.reader(fh))
        for cells in table[1:][rows]:
            cells[table[0].index(column)] = value
        with open(run / "dataset.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)
    return spoil


@pytest.mark.parametrize("spoil, message", [
    (_dataset_cells("mu_hat", "nan"), "mu_hat must be finite, not nan"),
    (_dataset_cells("tau_sq", "inf"), "tau_sq must be finite, not inf"),
    (_dataset_cells("discarded", "1", slice(None)), "no row with discarded 0"),
], ids=["nan-mu_hat", "inf-tau_sq", "every-row-discarded"])
def test_cli_export_grid_unusable_dataset_exit_2(tmp_path, capsys, finished_run,
                                                 spoil, message):
    # a non-finite value or noise was a ValueError traceback (exit 1) from
    # the posterior, and a file without kept rows said "points, values and
    # noises must have equal length"
    path, out = finished_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    spoil(run)
    rc = exit_code(["export-grid", "--config", str(path), "--run-dir", str(run),
                    "--out-dir", str(tmp_path / "export")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{run / 'dataset.csv'}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "export" / "grid.csv").exists()


@pytest.mark.parametrize("key, literal", [
    ("gamma", "null"), ("gamma", '"abc"'), ("mu_bar", "NaN"),
    ("s_bar", "0.0"), ("mu_bar", '"abc"'), ("gamma", "1" + "0" * 400),
    ("gamma", "Infinity"), ("s_bar", "1e400"), ("sigma_c", "NaN"),
    ("length", "Infinity"), ("delta", "NaN"), ("mu_bar", "-1e400"), ("delta", "1"),
], ids=["null-gamma", "string-gamma", "nan-mu_bar", "zero-s_bar",
        "string-mu_bar", "huge-int-gamma", "infinite-gamma", "overflowing-s_bar",
        "nan-sigma_c", "infinite-length", "nan-delta", "overflowing-mu_bar", "delta-1"])
def test_cli_export_grid_unusable_hyperparameter_exit_2(tmp_path, capsys,
                                                        finished_run, key, literal):
    # these ended in a TypeError or ValueError traceback (exit 1), an
    # OverflowError reported as a numerical failure (exit 3), an exit 2
    # that blamed dataset.csv, or a grid (an infinite length)
    path, out = finished_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    hp_file = run / "hyperparameters.json"
    hp_file.write_text(json.dumps({**json.loads(hp_file.read_text()), key: "@"})
                       .replace('"@"', literal))
    rc = exit_code(["export-grid", "--config", str(path), "--run-dir", str(run),
                    "--out-dir", str(tmp_path / "export")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{hp_file}: at {key}: " in err.splitlines()[0]
    assert "dataset.csv" not in err and "Traceback" not in err
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("grid, where", [
    ({"resolution": 0}, "at learning/grid/resolution"),
    ({"resolution": -3}, "at learning/grid/resolution"),
    ({"resolution": "a"}, "at learning/grid/resolution"),
    ({"resolution": 2.5}, "at learning/grid/resolution"),
    ({"resolution": True}, "at learning/grid/resolution"),
    ({"axes": ["zz", "k2"]}, "learning.grid"),
    ({"axes": ["k1"]}, "at learning/grid/axes"),
    ({"axes": ["k1", "k1"]}, "learning.grid"),
    ({"axes": "k1"}, "at learning/grid/axes"),
    ({"fixed": {"zz": 0.5}}, "learning.grid"),
    ({"fixed": {"k1": 0.5}}, "learning.grid"),
    ({"fixed": {"k3": "a"}}, "at learning/grid/fixed/k3"),
    ({"fixed": {"k3": 2.5}}, "learning.grid"),
    ({"fixed": []}, "at learning/grid/fixed"),
    ([1], "at learning/grid"),
    ({"resolution": 10, "spacing": 2}, "at learning/grid"),
], ids=["resolution-0", "resolution-negative", "resolution-string",
        "resolution-fractional", "resolution-bool", "unknown-axis", "one-axis",
        "repeated-axis", "axes-string", "fixed-unknown", "fixed-on-axis",
        "fixed-string", "fixed-out-of-bounds", "fixed-list", "grid-list",
        "unknown-key"])
def test_cli_invalid_grid_exit_2_at_load(tmp_path, capsys, grid, where):
    raw = json.loads(bundled("synthetic").read_text())
    raw["design"]["names"].append("k3")
    raw["design"]["bounds"].append([0, 2])
    raw["learning"].update({"n_initial": 10, "n_loop": 5, "iterations": 1,
                            "n_eval": 500})
    raw["learning"]["grid"] = grid if isinstance(grid, list) else {
        **raw["learning"]["grid"], **grid}
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = exit_code(["estimate-levelset", "--config", str(path), "--seed", "1",
                    "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {where}" in err and "Traceback" not in err
    assert not (out / "dataset.csv").exists()  # rejected before the loop


@pytest.mark.parametrize("learning, where", [
    ({"n_initial": 2}, "learning.n_initial"),
    ({"n_initial": 1}, "learning.n_initial"),
    ({"kernel": {"variant": "bogus"}}, "at learning/kernel/variant"),
    ({"kernel": "matern32"}, "at learning/kernel"),
    ({"n_initial": 8.9}, "at learning/n_initial"),
    ({"n_loop": 3.5}, "at learning/n_loop"),
    ({"iterations": 1.5}, "at learning/iterations"),
    ({"n_min": 6.2}, "at learning/n_min"),
    ({"n_max": [40.5]}, "at learning/n_max"),
    ({"n_max": 40.5}, "at learning/n_max"),
    ({"max_trials": 100.5}, "at learning/max_trials"),
    ({"n_eval": 500.5}, "at learning/n_eval"),
    ({"tau_values": None}, "at learning/tau_values"),
    ({"tau_values": ...}, "learning: missing key 'tau_fractions'"),
    ({"c2_0": "x"}, "at learning/c2_0"),
    ({"c2": [1, "a"]}, "at learning/c2"),
    ({"error_stop": "x"}, "at learning/error_stop"),
    ({"tau_scale": "gap"}, "at learning/tau_scale"),
    ({"n_intial": 10}, "at learning: additional property 'n_intial'"),
    ({"kernel": {"varaint": "matern52"}}, "at learning/kernel: additional property"),
    ({"iterations": 3, "n_max": [40, 40]}, "learning: n_max must be one bound"),
    ({"n_max": []}, "learning: n_max must be one bound"),
], ids=["n_initial-2", "n_initial-1", "kernel-variant", "kernel-string",
        "fractional-n_initial", "fractional-n_loop", "fractional-iterations",
        "fractional-n_min", "fractional-n_max-entry", "fractional-n_max",
        "fractional-max_trials", "fractional-n_eval", "no-tau-schedule",
        "no-tau-schedule-key", "string-c2_0", "string-in-c2", "string-error_stop",
        "unknown-tau_scale", "misspelled-key", "misspelled-kernel-key",
        "short-n_max-list", "empty-n_max-list"])
def test_cli_unusable_learning_block_exit_2_at_load(tmp_path, capsys, learning, where):
    # the kernel fit needs three points and a kernel object with a known
    # variant, budgets are whole numbers, every key is a known one of its
    # type, and an n_max list covers every iteration; each is checked
    # before the initial design is simulated
    raw = json.loads(SYNTHETIC_SMALL.read_text())
    for key, value in learning.items():
        if value is ...:
            del raw["learning"][key]
        else:
            raw["learning"][key] = value
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = exit_code(["estimate-levelset", "--config", str(path), "--seed", "1",
                    "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {where}" in err and "Traceback" not in err
    assert not (out / "dataset.csv").exists()


_URBAN_DESIGN = ["--design", "2.5,0.01,0.01,20,75", "--reps", "1"]


@pytest.mark.parametrize("name, command, keys, value, where", [
    ("synthetic_small", ["estimate-levelset"], ("threshold", "gamma"), "abc",
     "at evaluation/threshold/gamma"),
    ("synthetic_small", ["estimate-levelset"], ("threshold", "gamma"), None,
     "at evaluation/threshold/gamma"),
    ("synthetic_small", ["estimate-levelset"], ("threshold",), [], "at evaluation/threshold"),
    ("synthetic_small", ["estimate-levelset"], ("utility",), "identity",
     "at evaluation/utility"),
    ("urban", ["calibrate"], ("benchmarks",), [], "at evaluation/benchmarks"),
    ("urban", ["calibrate"], ("benchmarks", "A"), 3, "at evaluation/benchmarks/A"),
    ("urban", ["calibrate"], ("benchmarks", "A", "e"), "60",
     "at evaluation/benchmarks/A/e"),
    ("urban", ["calibrate"], ("utilities",), [3], "at evaluation/utilities/0"),
    ("urban", ["calibrate"], ("utilities", 1, "c"), "60",
     "at evaluation/utilities/1/c"),
    ("urban", ["simulate", *_URBAN_DESIGN], ("measure",), "foo",
     "at evaluation/measure"),
    ("urban", ["simulate", *_URBAN_DESIGN], ("measure",), {},
     "at evaluation/measure"),
], ids=["gamma-string", "gamma-null", "threshold-list", "utility-string",
        "benchmarks-list", "benchmark-number", "benchmark-e-string",
        "utilities-number", "utility-c-string", "measure-string", "measure-without-kind"])
def test_cli_invalid_evaluation_block_exit_2_at_load(tmp_path, capsys, name, command,
                                                     keys, value, where):
    # each ended in a traceback, or in an exit 2 in Python's own words
    raw = json.loads((SYNTHETIC_SMALL if name == "synthetic_small"
                      else bundled(name)).read_text())
    _set(("evaluation", *keys), value)(raw)
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = exit_code([*command, "--config", str(path), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {where}: " in err and "Traceback" not in err
    assert not out.exists()


_ROAD = {"kind": "highway", "s_max": 5, "rho_max": 30, "a": 1, "b": 1}


@pytest.mark.parametrize("cells, where", [
    (3, "at network/cells/roads"),
    ({"s_max": 5, "rho_max": 30, "a": 1, "b": 1}, "at network/cells/roads"),
    ({**_ROAD, "kind": "road"}, "at network/cells/roads/kind"),
    # "a": true ran to exit 0 and "a": "0.5" exited 2 without a JSON path;
    # a fraction of -1 or 5 ran to exit 0
    ({**_ROAD, "a": True}, "at network/cells/roads/a"),
    ({**_ROAD, "a": "0.5"}, "at network/cells/roads/a"),
    ({**_ROAD, "zeta": None}, "at network/cells/roads/zeta"),
    ({**_ROAD, "approach_capacity_fraction": -1},
     "at network/cells/roads/approach_capacity_fraction"),
    ({**_ROAD, "approach_capacity_fraction": 0},
     "at network/cells/roads/approach_capacity_fraction"),
    ({**_ROAD, "approach_capacity_fraction": 5},
     "at network/cells/roads/approach_capacity_fraction"),
    ({**_ROAD, "speed": 1}, "at network/cells/roads"),
    ({**_ROAD, "ccw": [1, 2, 3, 4]}, "at network/cells/roads"),
], ids=["number", "without-kind", "unknown-kind", "a-bool", "a-string", "zeta-null",
        "fraction-negative", "fraction-zero", "fraction-above-one", "unknown-key", "ccw"])
def test_cli_invalid_cell_group_exit_2_at_load(tmp_path, capsys, cells, where):
    raw = json.loads(bundled("urban").read_text())
    raw["network"]["cells"]["roads"] = cells
    path = write_config(tmp_path, raw)
    out = tmp_path / "run"
    rc = exit_code(["simulate", *_URBAN_DESIGN, "--config", str(path),
                    "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {where}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, key, value, message", [
    ("urban", "sigma", -0.01, "noise standard deviation must be non-negative"),
    ("highway", "psi", -0.1, "coefficient of variation must be non-negative"),
], ids=["urban-sigma", "highway-psi"])
def test_cli_negative_noise_scale_exit_2_naming_the_environment(
        tmp_path, capsys, name, key, value, message):
    raw = json.loads(bundled(name).read_text())
    raw["environment"]["sources"][0][key] = value
    path = write_config(tmp_path, raw)
    design = "2.5,0.01,0.01,20,75" if name == "urban" else "20,40"
    rc = exit_code(["simulate", "--config", str(path), "--design", design,
                    "--reps", "2", "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: environment: {message}" in err and "Traceback" not in err


def _assert_rejected_at(tmp_path, capsys, argv, *named):
    """``argv`` exits 2 with every one of ``named`` on the first stderr line,
    without a traceback, and writes nothing to ``tmp_path / "run"``."""
    out = tmp_path / "run"
    rc = exit_code([*argv, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert all(name in err.splitlines()[0] for name in named), err
    assert "Traceback" not in err
    assert not out.exists()


def _with_literal(raw, keys, literal):
    """``raw`` as JSON text with the value at ``keys`` written as ``literal``."""
    _set(keys, "@")(raw)
    return json.dumps(raw).replace('"@"', literal)


#: a command that loads each scenario, without --config and --out-dir
_RUN_COMMAND = {"urban": ["simulate", *_URBAN_DESIGN],
                "highway": ["simulate", "--design", "20,40", "--reps", "1"],
                "synthetic": ["simulate", "--design", "0.3,0.3", "--reps", "2"],
                "synthetic_small": ["estimate-levelset", "--seed", "1"]}


@pytest.mark.parametrize("name, keys, literal", [
    ("synthetic_small", ("evaluation", "threshold", "gamma"), "NaN"),
    ("synthetic", ("simulator", "noise"), "Infinity"),
    ("synthetic", ("simulator", "noise"), "1e400"),
    ("synthetic_small", ("learning", "c1"), "NaN"),
    ("synthetic_small", ("design", "bounds", 0, 1), "Infinity"),
    ("urban", ("environment", "sources", 0, "sigma"), "Infinity"),
    ("urban", ("run", "initial_density", "values", "roads"), "1e400"),
    ("urban", ("network", "lengths", "roads"), "NaN"),
    ("urban", ("network", "signals", "14", "a_real"), "Infinity"),
    ("highway", ("environment", "rho_cap_fraction"), "NaN"),
    ("highway", ("environment", "constants", 0, "scale"), "-Infinity"),
    ("highway", ("environment", "sources", 1, "pair_sign"), "-1e400"),
    ("highway", ("network", "cells", "core", "rho_max"), "NaN"),
], ids=["gamma-nan", "noise-infinity", "noise-1e400", "c1-nan", "bound-infinity",
        "sigma-infinity", "initial-density-1e400", "length-nan", "a_real-infinity",
        "rho-cap-nan", "constant-scale-minus-infinity", "pair-sign-minus-1e400",
        "rho_max-nan"])
def test_cli_non_finite_number_exit_2_naming_its_path(tmp_path, capsys, name, keys,
                                                      literal):
    # Python's json reads NaN and Infinity literals and reads 1e400 as inf;
    # these ran to exit 0 (a NaN gamma gave an error bound of 0), or ended
    # in a traceback, a numerical failure or an exit 2 in Python's words
    raw = json.loads((SYNTHETIC_SMALL if name == "synthetic_small"
                      else bundled(name)).read_text())
    path = tmp_path / "scenario.json"
    path.write_text(_with_literal(raw, keys, literal))
    where = "/".join(map(str, keys))
    _assert_rejected_at(tmp_path, capsys, [*_RUN_COMMAND[name], "--config", str(path)],
                        f"{path}: at {where}: ", "not a finite number")


@pytest.mark.parametrize("name, keys, value, where", [
    ("urban", ("environment", "sources"), [3, 4], "at environment/sources/0: "),
    ("highway", ("environment", "constants", 0, "value"), "abc",
     "at environment/constants/0/value: "),
    ("urban", ("run", "initial_density", "values", "roads"), "a",
     "at run/initial_density/values/roads: "),
    ("urban", ("run", "initial_density", "values", "roads"), -5,
     "at run/initial_density/values/roads: "),
    ("highway", ("run", "initial_density", "fraction"), -0.5,
     "at run/initial_density/fraction: "),
    ("urban", ("environment", "kind"), "bogus", "at environment/kind: "),
    ("highway", ("environment", "sources", 0, "route"), [5, 4],
     "at environment/sources/0/route: "),
    ("urban", ("seed",), -1, "at seed: "),
    ("synthetic_small", ("learning", "n_min"), 1, "at learning/n_min: "),
    ("synthetic_small", ("learning", "n_max"), [10], "at learning/n_max/0: "),
    ("synthetic_small", ("learning", "n_max"), 10, "at learning/n_max: "),
    ("synthetic_small", ("learning", "n_min"), 600, "at learning/n_max/0: "),
    ("highway", ("run", "initial_density"), ..., "at run: "),
    ("highway", ("network", "roundabout_ccw", "1"), 3, "at network/roundabout_ccw/1: "),
    ("highway", ("network", "roundabout_ccw", "abc"), [2, 7, 33, 28],
     "at network/roundabout_ccw: "),
    ("synthetic_small", ("learning", "acquisition"), "foo", "at learning/acquisition: "),
    ("urban", ("evaluation", "utility", "kind"), "foo", "at evaluation/utility/kind: "),
    ("urban", ("evaluation", "utilities", 0, "kind"), "foo",
     "at evaluation/utilities/0/kind: "),
], ids=["sources-numbers", "constant-value-string", "initial-density-string",
        "initial-density-negative", "initial-fraction-negative", "environment-kind-unknown",
        "route-two-nodes", "seed-negative", "n_min-one", "n_max-list-below-n_min",
        "n_max-below-n_min", "n_min-above-n_max", "no-initial-density",
        "roundabout-ccw-number", "roundabout-ccw-key-letters", "acquisition-unknown",
        "utility-kind-unknown", "utilities-kind-unknown"])
def test_cli_environment_run_and_seed_exit_2_at_a_json_path(tmp_path, capsys, name, keys,
                                                             value, where):
    # each exited 2 in Python's words ("'int' object is not iterable",
    # "could not convert string to float"), as a numerical failure (a
    # negative initial density), in a traceback (a negative seed, an n_min
    # below 2 or above n_max, no initial density, a roundabout entry that is
    # no list), without a JSON path (an unknown acquisition), or ran to
    # exit 0 (a utility kind that simulate never reads, a roundabout key
    # that is no node label)
    raw = json.loads((SYNTHETIC_SMALL if name == "synthetic_small"
                      else bundled(name)).read_text())
    _set(keys, value)(raw)
    path = write_config(tmp_path, raw)
    _assert_rejected_at(tmp_path, capsys, [*_RUN_COMMAND[name], "--config", str(path)],
                        f"{path}: {where}")


@pytest.mark.parametrize("name, keys, value, where", [
    ("urban", ("environment", "constants"), [{"route": [6, 7, 11], "value": 50.0}],
     "at environment: additional property 'constants' is not allowed"),
    ("urban", ("environment", "kind"), "none", "at environment: additional property "),
    ("urban", ("run", "initial_density", "values", "roads"), 20,
     "at run/initial_density/values/roads: 20 on each of the 2 routes through node "),
    ("highway", ("run", "initial_density", "fraction"), 1.5,
     "at run/initial_density/fraction: 1.5 is greater than the maximum of 1"),
], ids=["copula-constants", "none-with-sources", "initial-density-above-rho-max",
        "initial-fraction-above-one"])
def test_cli_input_the_run_would_drop_or_overfill_exit_2_at_a_json_path(
        tmp_path, capsys, name, keys, value, where):
    # each ran to exit 0: constants and sources the environment never
    # received (constants still counted by the throughput measure), and
    # node totals above the jam density (a road's two routes at 20 fill 40
    # of its 30)
    raw = json.loads(bundled(name).read_text())
    _set(keys, value)(raw)
    path = write_config(tmp_path, raw)
    _assert_rejected_at(tmp_path, capsys, [*_RUN_COMMAND[name], "--config", str(path)],
                        f"{path}: {where}")


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--design", "nan,0.01,0.01,20,75", "--reps", "1"], "--design"),
    (["simulate", "--design", "2.5,0.01,0.01,inf,75", "--reps", "1"], "--design"),
    (["simulate", "--design", "2.5,1e400,0.01,20,75", "--reps", "1"], "--design"),
    (["benchmark-compare", "--designs", "2.5,0.01,0.01,20,nan", "--reps", "1"],
     "--designs"),
    (["simulate", *_URBAN_DESIGN, "--seed", "-1"], "--seed"),
    (["benchmark-compare", "--designs", "2.5,0.01,0.01,20,75", "--reps", "1",
      "--seed", "-1"], "--seed"),
], ids=["design-nan", "design-inf", "design-1e400", "designs-nan", "seed-negative",
        "compare-seed-negative"])
def test_cli_non_finite_design_or_negative_seed_exit_2_naming_the_flag(
        tmp_path, capsys, argv, flag):
    # a NaN design ran to exit 0 with mean=nan, an infinite one was a
    # numerical failure, and the others ended in a traceback
    _assert_rejected_at(tmp_path, capsys, [*argv, "--config", str(bundled("urban"))],
                        flag)


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    (b"\xff\xfe{}", "can't decode"),
    (b'{"version": 1, "name": "x", "seed": 1' + b"0" * 5000 + b"}", "digits"),
], ids=["missing", "not-utf-8", "integer-of-5001-digits"])
def test_cli_unreadable_config_exit_2_naming_the_file(tmp_path, capsys, content, message):
    # each ended in a traceback
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    _assert_rejected_at(tmp_path, capsys, ["calibrate", "--config", str(path)],
                        f"{path}: ", message)


def test_cli_export_grid_on_one_dimension_exit_2(tmp_path, capsys):
    raw = json.loads(bundled("synthetic").read_text())
    raw["design"] = {"names": ["k1"], "bounds": [[0, 1]], "integerized": []}
    raw["simulator"]["surface"] = "sin1d"
    raw["learning"].update({"n_initial": 10, "n_loop": 5, "iterations": 0,
                            "n_eval": 500})
    del raw["learning"]["grid"]
    path = write_config(tmp_path, raw)
    run = tmp_path / "run"
    assert main(["estimate-levelset", "--config", str(path), "--seed", "1",
                 "--out-dir", str(run)]) == 0
    assert not list(run.glob("grid_*.csv"))
    capsys.readouterr()
    rc = exit_code(["export-grid", "--config", str(path), "--run-dir", str(run),
                    "--out-dir", str(tmp_path / "export")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(path) in err and "two dimensions" in err and "Traceback" not in err
    assert not (tmp_path / "export" / "grid.csv").exists()


@pytest.mark.parametrize("surface, names", [
    ("sincos2d", ["k1"]), (None, ["k1"]), ("sin1d", []),
], ids=["sincos2d-one-parameter", "default-surface-one-parameter",
        "sin1d-no-parameter"])
def test_cli_surface_dimension_mismatch_exit_2_at_load(tmp_path, capsys, surface,
                                                       names):
    # the surface reads k[0] (sin1d) or k[0] and k[1] (sincos2d); a design
    # with fewer parameters was an IndexError at the first replicate
    raw = json.loads(bundled("synthetic").read_text())
    raw["design"] = {"names": names, "bounds": [[0, 1]] * len(names),
                     "integerized": []}
    if surface is None:
        del raw["simulator"]["surface"]
    else:
        raw["simulator"]["surface"] = surface
    del raw["learning"]["grid"]
    path = write_config(tmp_path, raw)
    rc = exit_code(["simulate", "--config", str(path), "--design",
                    ",".join(["0.3"] * len(names)), "--reps", "2",
                    "--out-dir", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: simulator.surface" in err and "Traceback" not in err
    assert not (tmp_path / "sim" / "replicates.csv").exists()


#: jsonschema and what it loads; the scenario check is in-package
_VALIDATOR_MODULES = ("jsonschema", "jsonschema_specifications", "referencing",
                      "rpds", "attr", "attrs")


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # the normal CDF and quantile are in-package, and calibration, the GP
    # and the optimizers import scipy where they are used: start-up loads
    # no scipy module at all, and no JSON Schema validator
    assert _fresh_modules("import ctmdesign.cli", ("scipy", *_VALIDATOR_MODULES)) == []


def test_load_scenario_loads_no_json_schema_validator():
    code = ("from importlib import resources\n"
            "from ctmdesign.config import load_scenario\n"
            "for name in ('urban', 'highway', 'synthetic'):\n"
            "    load_scenario(resources.files('ctmdesign.scenarios')"
            ".joinpath(name + '.json'))")
    assert _fresh_modules(code, _VALIDATOR_MODULES) == []


def test_simulate_loads_no_scipy(tmp_path):
    # the copula sources draw their normals in-package, the urban network
    # needs neither an LP nor a sparse matrix, and the scenario check is
    # in-package
    code = ("from ctmdesign.cli import main\n"
            f"assert main(['simulate', '--config', {str(bundled('urban'))!r}, "
            "'--design', '2.5,0.01,0.01,20,75', '--reps', '2', "
            f"'--out-dir', {str(tmp_path / 'sim')!r}]) == 0")
    assert _fresh_modules(code, ("scipy", *_VALIDATOR_MODULES)) == []


def _fresh_modules(code, names):
    """Which of ``names``, or of their submodules, a fresh interpreter has
    loaded after ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint(' '.join(sorted(m for m in sys.modules "
         f"if any(m == n or m.startswith(n + '.') for n in {names!r}))))"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_estimate_levelset_leaves_numpy_ma_unloaded(tmp_path):
    # the first call of np.unique(..., axis=0) or np.median imports numpy.ma
    code = ("from ctmdesign.cli import main\n"
            f"assert main(['estimate-levelset', '--config', {str(SYNTHETIC_SMALL)!r}, "
            f"'--seed', '1', '--out-dir', {str(tmp_path / 'est')!r}]) == 0")
    assert _fresh_modules(code, ("numpy.ma",)) == []


def test_engine_build_leaves_scipy_sparse_unloaded():
    # networks of at most 512 routes assemble W and E as dense arrays
    code = ("from importlib import resources\n"
            "from ctmdesign.config import load_scenario\n"
            "for name in ('urban', 'highway'):\n"
            "    load_scenario(resources.files('ctmdesign.scenarios')"
            ".joinpath(name + '.json')).engine")
    assert _fresh_modules(code, ("scipy.sparse",)) == []


def test_hyperparameter_fit_leaves_scipy_optimize_and_sparse_unloaded():
    # the fit runs its own Nelder-Mead; scipy.optimize would load scipy.sparse.
    # Its LAPACK calls load the compiled scipy.linalg._flapack alone, not the
    # scipy.linalg package
    code = ("import numpy as np\n"
            "from ctmdesign.gpr import GprDataset, fit_hyperparameters\n"
            "x = np.random.default_rng(0).random((10, 2))\n"
            "fit_hyperparameters(GprDataset(x, np.sin(4 * x[:, 0]), np.full(10, 0.01)),"
            " 'matern32', rng=1)")
    assert _fresh_modules(code, ("scipy.optimize", "scipy.sparse", "scipy.linalg")) == [
        "scipy.linalg._flapack"]


def test_bundled_networks_write_each_matrix_entry_once(monkeypatch):
    # the dense assembly sums repeated entries with np.add.at, in another
    # order than CSR assembly would for three or more; none may repeat
    from ctmdesign import cells

    assemble = cells._assemble
    seen = []

    def record(rows, cols, vals, n, dense):
        seen.append(list(zip(rows, cols)))
        return assemble(rows, cols, vals, n, dense)

    monkeypatch.setattr(cells, "_assemble", record)
    root = Path(__file__).resolve().parents[1]
    paths = [bundled(name) for name in ("urban", "highway")]
    paths += sorted((root / "ctmbench" / "scenarios").glob("*.json"))
    for path in paths:
        raw = json.loads(Path(path).read_text())
        if "network" in raw:
            Scenario(raw).engine
    assert len(seen) >= 6
    for entries in seen:
        assert len(entries) == len(set(entries))


def test_estimate_levelset_leaves_scipy_stats_unloaded(tmp_path):
    # the Sobol points are built in numpy, and an explicit gamma needs no
    # calibration quadrature
    path = synthetic_config(tmp_path, iterations=1, n_initial=8, n_loop=3,
                            n_max=[20])
    code = ("from ctmdesign.cli import main\n"
            f"assert main(['estimate-levelset', '--config', {str(path)!r}, "
            f"'--out-dir', {str(tmp_path / 'run')!r}]) == 0")
    assert _fresh_modules(code, ("scipy.stats", "scipy.integrate")) == []


def test_estimate_levelset_loads_only_the_compiled_lapack_of_scipy_linalg(tmp_path):
    # the fit, the posterior and the grids call potrf and potrs from
    # scipy.linalg._flapack and trsm from scipy.linalg._fblas; scipy.linalg's
    # __init__ and the array-API chain it imports stay unloaded
    root = Path(__file__).resolve().parents[1]
    raw = json.loads((root / "ctmbench/scenarios/synthetic_small.json").read_text())
    raw["learning"].update({"n_initial": 5, "iterations": 1, "n_eval": 64})
    raw["learning"]["grid"]["resolution"] = 5
    path = write_config(tmp_path, raw)
    code = ("from ctmdesign.cli import main\n"
            f"assert main(['estimate-levelset', '--config', {str(path)!r}, "
            f"'--out-dir', {str(tmp_path / 'run')!r}]) == 0")
    assert _fresh_modules(code, ("scipy.linalg", "scipy._lib._array_api")) == [
        "scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert (tmp_path / "run" / "grid_1.csv").exists()


def test_benchmark_setup_probe_stamps_the_first_replicate(tmp_path):
    # ctmbench/run.py measures set-up as the time to the first
    # Scenario.run_replicate call, which launch.py hooks; a batch path that
    # bypassed it would leave the stamp empty
    root = Path(__file__).resolve().parents[1]
    stats = tmp_path / "stats.json"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "ctmbench" / "launch.py"), "--src", str(root / "src"),
         "--stats", str(stats), "--probe", "--",
         "simulate", "--config", str(root / "src/ctmdesign/scenarios/urban.json"),
         "--design", "2.5,0.01,0.01,20,75", "--reps", "2", "--seed", "1",
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(stats.read_text())["first_replicate"] is not None


def test_benchmark_tracer_installs():
    # ctmbench/tracer.py wraps package functions by name; a renamed or
    # removed one breaks traced benchmark runs
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "ctmbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; install(Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: spans of ctmbench/tracer.py that each traced command must enter
_LEVELSET_SPANS = {"gpr.fit", "gpr.posterior", "gpr.lml", "gpr.factor", "gpr.query",
                   "learning.loop", "learning.uniform", "learning.rejection",
                   "learning.nikodym", "evaluation.sequential_mc", "cli.persist",
                   "cli.write_csv", "cli.write_grid", "cli.manifest", "config.load",
                   "config.run_replicate"}
_SIMULATE_SPANS = {"cells.evaluate", "solvers.outflows", "solvers.inflows", "solvers.run",
                   "network.clamp", "env.net_flows", "evaluation.observe",
                   "signals.table", "config.engine_build", "config.run_replicate",
                   "config.load", "cli.write_csv", "cli.manifest"}


@pytest.mark.parametrize("command, spans", [
    (["estimate-levelset", "--config", str(SYNTHETIC_SMALL)], _LEVELSET_SPANS),
    (["simulate", "--config", str(bundled("urban")), "--design", "2.5,0.01,0.01,20,75",
      "--reps", "2"], _SIMULATE_SPANS)], ids=["estimate-levelset", "simulate"])
def test_benchmark_tracer_sees_every_layer_called(tmp_path, command, spans):
    # the tracer patches module attributes and class methods: a function
    # the package stopped calling through its module (or a method called
    # around its class) keeps its name but drops out of the per-layer metrics
    root = Path(__file__).resolve().parents[1]
    stats = tmp_path / "stats.json"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "ctmbench" / "launch.py"), "--src", str(root / "src"),
         "--stats", str(stats), "--trace", "--", *command, "--seed", "1",
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = {name: rec[0] for name, rec in
             json.loads(stats.read_text())["trace"]["spans"].items()}
    assert {name for name in spans if calls.get(name, 0) == 0} == set()
