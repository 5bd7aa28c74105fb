import csv
import json
from importlib import resources

import numpy as np
import pytest

from ctmdesign import learning, solvers
from ctmdesign.cli import main, replicate_values
from ctmdesign.config import ConfigError, Scenario, load_scenario
from ctmdesign.env import replicate_rng
from ctmdesign.network import NetworkError
from reference import DensityState, total_mass


def bundled(name):
    return resources.files("ctmdesign.scenarios").joinpath(f"{name}.json")


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
    raw["run"] = {"steps": 0}
    path = write_config(tmp_path, raw)
    with pytest.raises(ConfigError, match="run/steps"):
        load_scenario(path)


def test_unknown_node_rejected(tmp_path):
    raw = json.loads(bundled("urban").read_text())
    raw["network"]["edges"].append([1, 99])
    with pytest.raises(ConfigError, match="99"):
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
    path = synthetic_config(tmp_path)
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
    assert final  # non-empty


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


def test_cli_benchmark_compare(tmp_path):
    path = synthetic_config(tmp_path)
    out = tmp_path / "cmp"
    rc = main(["benchmark-compare", "--config", str(path),
               "--designs", "0.2,0.2;0.4,0.4", "--reps", "5",
               "--out-dir", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "comparison.csv")))
    assert len(rows) == 4  # two designs x two rules


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


@pytest.mark.parametrize("block, key, value", [
    ("learning", "tau_values", [0.01, -0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01]),
    ("design", "bounds", [[1.0, 0.0], [0.0, 1.0]]),
], ids=["negative-tau", "reversed-bounds"])
def test_cli_invalid_values_exit_2_naming_the_file(tmp_path, capsys, block,
                                                   key, value):
    raw = json.loads(bundled("synthetic").read_text())
    raw[block][key] = value
    path = write_config(tmp_path, raw)
    rc = main(["estimate-levelset", "--config", str(path),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(path) in err and "Traceback" not in err

